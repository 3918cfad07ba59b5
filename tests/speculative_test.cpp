// Speculative decoding tests. The correctness anchor is exactness: whatever
// a drafter proposes, the committed token stream (and the returned logits)
// must be identical to sequential greedy decode on the same plane — across
// K, both transports, fp32 and int8, and with speculative, draftless and
// all-rejected lanes mixed in one verify round. The wire anchor is the
// round's message count: verifying k drafts must cost exactly the messages
// of a single-token step, so accepted drafts translate into fewer
// round-trips per committed token. Plus drafter/controller unit tests and
// the DistributedDecoder::extend edge cases (empty span, interleaved with
// live batched slots, int8, contained crash, window overflow).
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/chaos.h"
#include "net/transport.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "partition/scheme.h"
#include "runtime/distributed_decoder.h"
#include "runtime/drafter.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "transformer/decoder.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

::testing::AssertionResult row_bitwise_equal(const Tensor& got, std::size_t r,
                                             const Tensor& want,
                                             std::size_t want_row = 0) {
  if (got.cols() != want.cols() || r >= got.rows() ||
      want_row >= want.rows()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: [" << got.rows() << "x" << got.cols()
           << "] row " << r << " vs [" << want.rows() << "x" << want.cols()
           << "] row " << want_row;
  }
  if (std::memcmp(got.row(r).data(), want.row(want_row).data(),
                  want.cols() * sizeof(float)) != 0) {
    return ::testing::AssertionFailure()
           << "row " << r << " differs bitwise from the reference";
  }
  return ::testing::AssertionSuccess();
}

// Sequential greedy decode on a solo DistributedDecoder of the same plane:
// the reference every speculative run must reproduce token for token (and
// logits bit for bit). logits[i] is the state after committing i tokens.
struct GreedyRun {
  std::vector<TokenId> tokens;  // the greedy continuation
  std::vector<Tensor> logits;   // logits[0] = prime, logits[i] = after i
};

GreedyRun solo_greedy(const TransformerModel& model, std::size_t k,
                      TransportKind transport, Precision precision,
                      const std::vector<TokenId>& prompt,
                      std::size_t new_tokens) {
  DistributedDecoder solo(model, PartitionScheme::even(k),
                          OrderPolicy::kAdaptive, transport);
  solo.set_precision(precision);
  GreedyRun run;
  run.logits.push_back(solo.prime(prompt));
  for (std::size_t i = 0; i < new_tokens; ++i) {
    const auto next = static_cast<TokenId>(argmax_row(run.logits.back(), 0));
    run.tokens.push_back(next);
    run.logits.push_back(solo.step(next));
  }
  return run;
}

// --- PromptLookupDrafter ---------------------------------------------------

TEST(PromptLookup, DraftsTheCycleContinuation) {
  PromptLookupDrafter drafter(4);
  const std::vector<TokenId> cycle{1, 2, 3, 1, 2, 3, 1, 2};
  drafter.begin(cycle);
  // Longest recurring suffix is {2,3,1,2} at position 1; its continuation
  // replays the cycle.
  EXPECT_EQ(drafter.draft(3), (std::vector<TokenId>{3, 1, 2}));
}

TEST(PromptLookup, NoMatchOrNoHistoryDraftsNothing) {
  PromptLookupDrafter drafter;
  drafter.begin(std::vector<TokenId>{1, 2, 3, 4, 5});
  EXPECT_TRUE(drafter.draft(4).empty());  // all tokens distinct
  drafter.begin(std::vector<TokenId>{7});
  EXPECT_TRUE(drafter.draft(4).empty());  // too short to match
  drafter.begin(std::vector<TokenId>{7, 7, 7});
  EXPECT_TRUE(drafter.draft(0).empty());  // zero-width request
}

TEST(PromptLookup, ObserveExtendsTheSearchableHistory) {
  PromptLookupDrafter drafter;
  drafter.begin(std::vector<TokenId>{7, 8});
  drafter.observe(std::vector<TokenId>{7, 8});
  EXPECT_EQ(drafter.draft(2), (std::vector<TokenId>{7, 8}));
}

TEST(PromptLookup, OverlappingContinuationStaysInBounds) {
  // Period-1 history: the match's continuation runs into the suffix region
  // itself. The drafter must replay the cycle from real history, never read
  // past it (this was a real out-of-bounds bug).
  PromptLookupDrafter drafter;
  drafter.begin(std::vector<TokenId>{5, 5, 5});
  const std::vector<TokenId> drafts = drafter.draft(4);
  ASSERT_FALSE(drafts.empty());
  for (const TokenId t : drafts) EXPECT_EQ(t, 5);
}

TEST(PromptLookup, ZeroNgramThrows) {
  EXPECT_THROW(PromptLookupDrafter{0}, std::invalid_argument);
}

// --- ModelDrafter ----------------------------------------------------------

TEST(ModelDrafterTest, DraftsTheModelsOwnGreedyChainAndRollsBack) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto prompt = random_tokens(10, model.spec().vocab_size, 11);
  // The target model's actual greedy continuation.
  IncrementalDecoder reference(model);
  Tensor logits = reference.prime(prompt);
  std::vector<TokenId> greedy;
  for (int i = 0; i < 4; ++i) {
    greedy.push_back(static_cast<TokenId>(argmax_row(logits, 0)));
    logits = reference.step(greedy.back());
  }
  ModelDrafter drafter(model);
  drafter.begin(prompt);
  EXPECT_EQ(drafter.draft(3),
            (std::vector<TokenId>{greedy[0], greedy[1], greedy[2]}));
  // draft() rolled its decoder back to the committed frontier: drafting
  // again gives the same answer, not a continuation.
  EXPECT_EQ(drafter.draft(3),
            (std::vector<TokenId>{greedy[0], greedy[1], greedy[2]}));
  // Observing a committed token advances the frontier.
  drafter.observe(std::span<const TokenId>(greedy.data(), 1));
  EXPECT_EQ(drafter.draft(2), (std::vector<TokenId>{greedy[1], greedy[2]}));
}

TEST(ModelDrafterTest, UseBeforeBeginThrows) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  ModelDrafter drafter(model);
  EXPECT_THROW((void)drafter.draft(2), std::logic_error);
  const std::vector<TokenId> tokens{1};
  EXPECT_THROW(drafter.observe(tokens), std::logic_error);
}

// --- SpeculationController -------------------------------------------------

TEST(SpeculationControllerTest, WindowTracksTheAcceptanceRate) {
  SpeculationController spec(4);
  EXPECT_EQ(spec.window(), 4U);  // optimistic start probes the full window
  for (int i = 0; i < 12; ++i) spec.update(0, 4);
  EXPECT_EQ(spec.window(), 1U);  // cold slot keeps a single free probe
  EXPECT_LT(spec.acceptance_rate(), 0.05);
  for (int i = 0; i < 12; ++i) spec.update(4, 4);
  EXPECT_EQ(spec.window(), 4U);  // hot streak reopens the window
  EXPECT_GT(spec.acceptance_rate(), 0.95);
  // Draftless rounds carry no signal.
  const double rate = spec.acceptance_rate();
  spec.update(0, 0);
  EXPECT_EQ(spec.acceptance_rate(), rate);
}

TEST(SpeculationControllerTest, DisabledAndInvalidConfigs) {
  SpeculationController off(0);
  EXPECT_EQ(off.window(), 0U);
  EXPECT_THROW(SpeculationController(4, 0.0), std::invalid_argument);
  EXPECT_THROW(SpeculationController(4, 1.5), std::invalid_argument);
}

// --- Exactness: speculative == sequential greedy decode --------------------

class SpeculativeEquivalence
    : public ::testing::TestWithParam<std::tuple<TransportKind, Precision>> {};

TEST_P(SpeculativeEquivalence, OutputIdenticalToSequentialGreedyAcrossK) {
  const auto [transport, precision] = GetParam();
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto prompt = random_tokens(9, model.spec().vocab_size, 42);
  constexpr std::size_t kNewTokens = 8;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const GreedyRun reference =
        solo_greedy(model, k, transport, precision, prompt, kNewTokens);
    DistributedDecoder decoder(model, PartitionScheme::even(k),
                               OrderPolicy::kAdaptive, transport);
    decoder.set_precision(precision);
    const auto primed = decoder.prime_slot(prompt);
    ASSERT_TRUE(row_bitwise_equal(primed.logits, 0, reference.logits[0]));
    std::vector<TokenId> generated{
        static_cast<TokenId>(argmax_row(primed.logits, 0))};
    // Alternate draft quality per round: perfect drafts (stolen from the
    // reference), garbage drafts (bit-flipped), and draftless rounds — the
    // output must not care.
    std::size_t fed = 0;  // tokens committed into the decoder's caches
    for (int round = 0; generated.size() < kNewTokens; ++round) {
      std::vector<TokenId> drafts;
      const std::size_t remaining = kNewTokens - generated.size();
      if (round % 3 == 0) {
        for (std::size_t d = 0;
             d < std::min<std::size_t>(2, remaining) &&
             generated.size() + d < reference.tokens.size();
             ++d) {
          drafts.push_back(reference.tokens[generated.size() + d]);
        }
      } else if (round % 3 == 1) {
        drafts.push_back(reference.tokens[generated.size() - 1] ^ 1);
      }
      const SlotWindow lane{.slot = primed.slot,
                            .token = generated.back(),
                            .drafts = drafts};
      const auto commits =
          decoder.step_speculative(std::span<const SlotWindow>(&lane, 1));
      ASSERT_EQ(commits.size(), 1U);
      const LaneCommit& commit = commits[0];
      fed += 1 + commit.accepted;
      ASSERT_TRUE(
          row_bitwise_equal(commit.logits, 0, reference.logits[fed]))
          << "K=" << k << " round " << round;
      for (const TokenId token : commit.tokens) {
        ASSERT_LT(generated.size(), reference.tokens.size());
        ASSERT_EQ(token, reference.tokens[generated.size()])
            << "K=" << k << " round " << round << " token "
            << generated.size();
        generated.push_back(token);
        if (generated.size() == kNewTokens) break;
      }
      EXPECT_EQ(decoder.slot_position(primed.slot), prompt.size() + fed);
    }
    EXPECT_EQ(generated,
              std::vector<TokenId>(reference.tokens.begin(),
                                   reference.tokens.begin() + kNewTokens));
  }
}

INSTANTIATE_TEST_SUITE_P(
    TransportsAndPrecisions, SpeculativeEquivalence,
    ::testing::Combine(::testing::Values(TransportKind::kInMemory,
                                         TransportKind::kUnixSocket),
                       ::testing::Values(Precision::kFp32, Precision::kInt8)),
    [](const auto& info) {
      const std::string t = std::get<0>(info.param) == TransportKind::kInMemory
                                ? "InMemory"
                                : "UnixSocket";
      const std::string p =
          std::get<1>(info.param) == Precision::kFp32 ? "Fp32" : "Int8";
      return t + p;
    });

TEST(Speculative, MixedLanesShareOneRoundWithoutCrossTalk) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    constexpr std::size_t kLanes = 3;
    constexpr std::size_t kNewTokens = 6;
    // Reference runs carry headroom past kNewTokens: the last verify round
    // may overshoot the target by up to the window width.
    constexpr std::size_t kRefTokens = kNewTokens + 6;
    std::vector<std::vector<TokenId>> prompts;
    std::vector<GreedyRun> references;
    for (std::size_t s = 0; s < kLanes; ++s) {
      prompts.push_back(
          random_tokens(6 + 2 * s, model.spec().vocab_size, 70 + s));
      references.push_back(solo_greedy(model, 2, TransportKind::kInMemory,
                                       precision, prompts.back(),
                                       kRefTokens));
    }
    DistributedDecoder decoder(model, PartitionScheme::even(2));
    decoder.set_precision(precision);
    std::vector<std::vector<TokenId>> generated(kLanes);
    for (std::size_t s = 0; s < kLanes; ++s) {
      const auto primed = decoder.prime_slot(prompts[s]);
      EXPECT_EQ(primed.slot, s);
      generated[s].push_back(
          static_cast<TokenId>(argmax_row(primed.logits, 0)));
    }
    std::vector<std::size_t> fed(kLanes, 0);
    while (generated[0].size() < kNewTokens) {
      // Lane 0 speculates with perfect drafts, lane 1 is an ordinary
      // draftless batch-mate, lane 2's drafts are always wrong.
      std::vector<std::vector<TokenId>> drafts(kLanes);
      for (std::size_t d = 0; d < 2 &&
                              generated[0].size() + d <
                                  references[0].tokens.size();
           ++d) {
        drafts[0].push_back(references[0].tokens[generated[0].size() + d]);
      }
      drafts[2].push_back(
          references[2].tokens[generated[2].size() - 1] ^ 1);
      std::vector<SlotWindow> lanes;
      for (std::size_t s = 0; s < kLanes; ++s) {
        lanes.push_back(SlotWindow{.slot = s,
                                   .token = generated[s].back(),
                                   .drafts = drafts[s]});
      }
      const auto commits = decoder.step_speculative(lanes);
      ASSERT_EQ(commits.size(), kLanes);
      EXPECT_EQ(commits[1].drafted, 0U);
      EXPECT_EQ(commits[1].tokens.size(), 1U);
      EXPECT_EQ(commits[2].accepted, 0U);  // garbage never lands
      for (std::size_t s = 0; s < kLanes; ++s) {
        fed[s] += 1 + commits[s].accepted;
        ASSERT_TRUE(row_bitwise_equal(commits[s].logits, 0,
                                      references[s].logits[fed[s]]))
            << "lane " << s;
        for (const TokenId token : commits[s].tokens) {
          ASSERT_LT(generated[s].size(), references[s].tokens.size());
          ASSERT_EQ(token, references[s].tokens[generated[s].size()])
              << "lane " << s;
          generated[s].push_back(token);
        }
      }
    }
    // The speculating lane raced ahead; the draftless and all-rejected
    // lanes advanced one token per round — and every lane stayed exactly on
    // its own sequential-greedy trajectory.
    EXPECT_GE(generated[0].size(), kNewTokens);
    for (std::size_t s = 0; s < kLanes; ++s) {
      EXPECT_GT(generated[s].size(), 1U);
      for (std::size_t i = 0; i < generated[s].size(); ++i) {
        EXPECT_EQ(generated[s][i], references[s].tokens[i]);
      }
    }
  }
}

TEST(Speculative, RejectedRoundRollsBackAndDecodingContinuesExactly) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto prompt = random_tokens(8, model.spec().vocab_size, 77);
  const GreedyRun reference =
      solo_greedy(model, 3, TransportKind::kInMemory, Precision::kFp32,
                  prompt, 5);
  DistributedDecoder decoder(model, PartitionScheme::even(3));
  const Tensor primed = decoder.prime(prompt);
  const auto first = static_cast<TokenId>(argmax_row(primed, 0));
  ASSERT_EQ(first, reference.tokens[0]);
  // Four wrong drafts: the round must commit exactly the one real token
  // plus the model's bonus token, and truncate every rejected cache row.
  const std::vector<TokenId> wrong{reference.tokens[1] ^ 1,
                                   reference.tokens[2] ^ 1,
                                   reference.tokens[3] ^ 1,
                                   reference.tokens[4] ^ 1};
  const SlotWindow lane{.slot = 0, .token = first, .drafts = wrong};
  const auto commits =
      decoder.step_speculative(std::span<const SlotWindow>(&lane, 1));
  ASSERT_EQ(commits[0].accepted, 0U);
  ASSERT_EQ(commits[0].drafted, 4U);
  ASSERT_EQ(commits[0].tokens, (std::vector<TokenId>{reference.tokens[1]}));
  EXPECT_EQ(decoder.position(), prompt.size() + 1);
  // The rollback left the caches exactly at the sequential state: plain
  // steps from here stay bitwise on the reference trajectory.
  Tensor logits = decoder.step(reference.tokens[1]);
  ASSERT_TRUE(row_bitwise_equal(logits, 0, reference.logits[2]));
  logits = decoder.step(reference.tokens[2]);
  ASSERT_TRUE(row_bitwise_equal(logits, 0, reference.logits[3]));
}

TEST(Speculative, DraftsAreTrimmedToTheRemainingContextWindow) {
  ModelSpec spec = mini_gpt2_spec();
  spec.max_positions = 12;
  const TransformerModel model(spec, 1);
  const auto prompt = random_tokens(9, spec.vocab_size, 5);
  DistributedDecoder decoder(model, PartitionScheme::even(2));
  const Tensor primed = decoder.prime(prompt);
  const auto first = static_cast<TokenId>(argmax_row(primed, 0));
  // Position 9 of 12: room for the committed token plus 2 of the 4 drafts.
  const std::vector<TokenId> drafts{1, 2, 3, 4};
  const SlotWindow lane{.slot = 0, .token = first, .drafts = drafts};
  const auto commits =
      decoder.step_speculative(std::span<const SlotWindow>(&lane, 1));
  EXPECT_EQ(commits[0].drafted, 2U);
  EXPECT_LE(decoder.position(), spec.max_positions);
  // A full slot refuses another lane outright.
  while (decoder.position() < spec.max_positions) {
    const SlotWindow next{.slot = 0, .token = first, .drafts = {}};
    (void)decoder.step_speculative(std::span<const SlotWindow>(&next, 1));
  }
  const SlotWindow overflow{.slot = 0, .token = first, .drafts = {}};
  EXPECT_THROW((void)decoder.step_speculative(
                   std::span<const SlotWindow>(&overflow, 1)),
               std::length_error);
}

// --- Wire invariants -------------------------------------------------------

TEST(SpeculativeWire, VerifyRoundMessagesIndependentOfWindowWidth) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    DistributedDecoder decoder(model, PartitionScheme::even(4));
    decoder.set_precision(precision);
    const auto prompt = random_tokens(8, model.spec().vocab_size, 33);
    const auto primed = decoder.prime_slot(prompt);
    const auto token = static_cast<TokenId>(argmax_row(primed.logits, 0));
    const auto round_cost = [&](std::span<const TokenId> drafts) {
      const TrafficStats before = decoder.fabric().total_stats();
      const SlotWindow lane{.slot = primed.slot,
                            .token = token,
                            .drafts = drafts};
      (void)decoder.step_speculative(std::span<const SlotWindow>(&lane, 1));
      const TrafficStats after = decoder.fabric().total_stats();
      return std::pair<std::uint64_t, std::uint64_t>(
          after.messages_sent - before.messages_sent,
          after.bytes_sent - before.bytes_sent);
    };
    // Wrong drafts on purpose: every round starts from the same position,
    // so the single-token round and the 4-draft round are directly
    // comparable.
    const std::vector<TokenId> wrong{token ^ 1, token ^ 2, token ^ 3,
                                     token ^ 1};
    const auto [m1, bytes1] = round_cost({});
    const auto [m5, bytes5] =
        round_cost(std::span<const TokenId>(wrong.data(), 4));
    EXPECT_EQ(m5, m1) << "precision "
                      << (precision == Precision::kInt8 ? "int8" : "fp32");
    EXPECT_GT(bytes5, bytes1);   // the rows themselves still cost bytes
    EXPECT_LT(bytes5, 5 * bytes1);  // but far less than five single rounds
  }
}

TEST(SpeculativeWire, AcceptedDraftsCutRoundTripsPerCommittedToken) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto prompt = random_tokens(8, model.spec().vocab_size, 90);
  constexpr std::size_t kNewTokens = 16;
  const GreedyRun reference =
      solo_greedy(model, 4, TransportKind::kInMemory, Precision::kFp32,
                  prompt, kNewTokens);
  DistributedDecoder decoder(model, PartitionScheme::even(4));
  const auto primed = decoder.prime_slot(prompt);
  const std::uint64_t prefill_msgs =
      decoder.fabric().total_stats().messages_sent;
  std::vector<TokenId> generated{
      static_cast<TokenId>(argmax_row(primed.logits, 0))};
  // Measure one draftless round to calibrate the per-round message count.
  std::size_t rounds = 0;
  while (generated.size() < kNewTokens) {
    std::vector<TokenId> drafts;
    for (std::size_t d = 0; d < 3 && generated.size() + d <
                                         reference.tokens.size();
         ++d) {
      drafts.push_back(reference.tokens[generated.size() + d]);
    }
    const SlotWindow lane{.slot = primed.slot,
                          .token = generated.back(),
                          .drafts = drafts};
    const auto commits =
        decoder.step_speculative(std::span<const SlotWindow>(&lane, 1));
    for (const TokenId t : commits[0].tokens) generated.push_back(t);
    ++rounds;
  }
  const std::uint64_t step_msgs =
      decoder.fabric().total_stats().messages_sent - prefill_msgs;
  // Perfect drafts: 16 tokens in far fewer than 16 round-trips, and the
  // total message bill shrinks with them (messages are per round, not per
  // token).
  EXPECT_LT(rounds, kNewTokens / 2);
  EXPECT_EQ(step_msgs % rounds, 0U)
      << "per-round message count is not constant";
  const double round_trips_per_token =
      static_cast<double>(rounds) / static_cast<double>(generated.size());
  EXPECT_LT(round_trips_per_token, 1.0);
}

TEST(SpeculativeObs, StepSpansCarryDraftAndAcceptanceCounts) {
  // The tracer outlives the decoder: device jobs may still be writing
  // spans after step_speculative returns, until the decoder drains them.
  obs::Tracer tracer;
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto prompt = random_tokens(8, model.spec().vocab_size, 55);
  const GreedyRun reference =
      solo_greedy(model, 2, TransportKind::kInMemory, Precision::kFp32,
                  prompt, 3);
  {
    DistributedDecoder decoder(model, PartitionScheme::even(2));
    decoder.set_tracer(&tracer);
    const Tensor primed = decoder.prime(prompt);
    const std::vector<TokenId> drafts{reference.tokens[1],
                                      reference.tokens[2]};
    const SlotWindow lane{.slot = 0,
                          .token = reference.tokens[0],
                          .drafts = drafts};
    const auto commits =
        decoder.step_speculative(std::span<const SlotWindow>(&lane, 1));
    ASSERT_EQ(commits[0].accepted, 2U);
  }
  bool saw_step = false;
  bool saw_commit = false;
  for (const obs::TraceEvent& event : tracer.events()) {
    if (std::string_view(event.name) == "decode.step") {
      saw_step = true;
      EXPECT_EQ(event.tokens, 3);  // 1 committed + 2 accepted drafts
      EXPECT_EQ(event.drafts, 2);
      EXPECT_EQ(event.accepted, 2);
    }
    if (std::string_view(event.name) == "spec_commit") {
      saw_commit = true;
      EXPECT_EQ(event.accepted, 2);
    }
  }
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_commit);
}

// --- DistributedDecoder::extend edge cases ---------------------------------

TEST(ExtendEdgeCases, EmptySpanThrowsWithoutTouchingTheMesh) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  DistributedDecoder decoder(model, PartitionScheme::even(2));
  // Before prime: the slot check fires (also without touching the mesh).
  EXPECT_THROW((void)decoder.extend(std::vector<TokenId>{1, 2}),
               std::logic_error);
  const Tensor primed =
      decoder.prime(random_tokens(6, model.spec().vocab_size, 21));
  EXPECT_THROW((void)decoder.extend({}), std::invalid_argument);
  EXPECT_FALSE(decoder.fabric().closed());
  // The mesh is unharmed: the slot still decodes.
  EXPECT_EQ(decoder.step(static_cast<TokenId>(argmax_row(primed, 0))).rows(),
            1U);
}

TEST(ExtendEdgeCases, ExtendInterleavesWithLiveBatchedSlots) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto prompt_a = random_tokens(7, model.spec().vocab_size, 61);
  const auto prompt_b = random_tokens(9, model.spec().vocab_size, 62);
  const auto extension = random_tokens(3, model.spec().vocab_size, 63);

  // Solo references on the same mesh shape: the bitwise contract is
  // batched-vs-alone at equal K (single-device IncrementalDecoder only
  // matches to tolerance).
  DistributedDecoder ref_a(model, PartitionScheme::even(2));
  DistributedDecoder ref_b(model, PartitionScheme::even(2));
  Tensor ref_a_logits = ref_a.prime(prompt_a);
  Tensor ref_b_logits = ref_b.prime(prompt_b);

  DistributedDecoder decoder(model, PartitionScheme::even(2));
  const auto a = decoder.prime_slot(prompt_a);
  const auto b = decoder.prime_slot(prompt_b);
  ASSERT_EQ(a.slot, 0U);  // extend() operates on slot 0

  // Batch-step both slots a few tokens.
  SlotToken lane_a{.slot = a.slot,
                   .token = static_cast<TokenId>(argmax_row(a.logits, 0))};
  SlotToken lane_b{.slot = b.slot,
                   .token = static_cast<TokenId>(argmax_row(b.logits, 0))};
  for (int step = 0; step < 2; ++step) {
    const std::vector<SlotToken> lanes{lane_a, lane_b};
    const Tensor logits = decoder.step_batch(lanes);
    ref_a_logits = ref_a.step(lane_a.token);
    ref_b_logits = ref_b.step(lane_b.token);
    ASSERT_TRUE(row_bitwise_equal(logits, 0, ref_a_logits));
    ASSERT_TRUE(row_bitwise_equal(logits, 1, ref_b_logits));
    lane_a.token = static_cast<TokenId>(argmax_row(logits, 0));
    lane_b.token = static_cast<TokenId>(argmax_row(logits, 1));
  }

  // Extend slot 0 while slot 1 sits live mid-decode.
  const Tensor extended = decoder.extend(extension);
  ref_a_logits = ref_a.extend(extension);
  ASSERT_TRUE(row_bitwise_equal(extended, 0, ref_a_logits));
  EXPECT_EQ(decoder.slot_position(a.slot), prompt_a.size() + 2 + 3);
  EXPECT_EQ(decoder.slot_position(b.slot), prompt_b.size() + 2);

  // Both slots keep decoding bitwise on their references afterwards.
  lane_a.token = static_cast<TokenId>(argmax_row(extended, 0));
  for (int step = 0; step < 2; ++step) {
    const std::vector<SlotToken> lanes{lane_a, lane_b};
    const Tensor logits = decoder.step_batch(lanes);
    ref_a_logits = ref_a.step(lane_a.token);
    ref_b_logits = ref_b.step(lane_b.token);
    ASSERT_TRUE(row_bitwise_equal(logits, 0, ref_a_logits))
        << "post-extend step " << step;
    ASSERT_TRUE(row_bitwise_equal(logits, 1, ref_b_logits))
        << "post-extend step " << step;
    lane_a.token = static_cast<TokenId>(argmax_row(logits, 0));
    lane_b.token = static_cast<TokenId>(argmax_row(logits, 1));
  }
}

TEST(ExtendEdgeCases, ExtendUnderInt8MatchesStepByStepInt8) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto prompt = random_tokens(8, model.spec().vocab_size, 71);
  const auto tokens = random_tokens(4, model.spec().vocab_size, 72);

  DistributedDecoder stepped(model, PartitionScheme::even(2));
  stepped.set_precision(Precision::kInt8);
  (void)stepped.prime(prompt);
  Tensor step_logits(0, 0);
  for (const TokenId t : tokens) step_logits = stepped.step(t);

  DistributedDecoder extended(model, PartitionScheme::even(2));
  extended.set_precision(Precision::kInt8);
  (void)extended.prime(prompt);
  const Tensor ext_logits = extended.extend(tokens);

  ASSERT_TRUE(row_bitwise_equal(ext_logits, 0, step_logits));
  EXPECT_EQ(extended.position(), stepped.position());
  // And the caches really advanced identically: one more step agrees too.
  const auto next = static_cast<TokenId>(argmax_row(ext_logits, 0));
  ASSERT_TRUE(row_bitwise_equal(extended.step(next), 0, stepped.step(next)));
}

TEST(ExtendEdgeCases, ExtendAfterContainedCrashRethrowsDecoderDead) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  auto chaos = std::make_unique<ChaosTransport>(
      make_transport(TransportKind::kInMemory, 3),
      ChaosOptions{.max_delay_seconds = 1e-4,
                   .seed = 13,
                   .crash = ChaosOptions::Crash{.device = 1,
                                                .after_sends = 60}});
  DistributedDecoder decoder(model, PartitionScheme::even(2),
                             OrderPolicy::kAdaptive, std::move(chaos));
  Tensor logits = decoder.prime(random_tokens(8, model.spec().vocab_size, 3));
  bool crashed = false;
  const std::vector<TokenId> extension{1, 2, 3};
  for (int step = 0; step < 64 && !crashed; ++step) {
    try {
      // Alternate step and extend so the crash can land under either.
      logits = step % 2 == 0
                   ? decoder.step(static_cast<TokenId>(argmax_row(logits, 0)))
                   : decoder.extend(extension);
    } catch (const TransportClosedError& e) {
      crashed = true;
      EXPECT_NE(std::string(e.what()).find("crashed"), std::string::npos)
          << e.what();
    }
  }
  ASSERT_TRUE(crashed) << "crash fault never surfaced";
  // The decoder is dead; extend (like every other entry point) says so
  // instead of hanging on the poisoned mesh.
  EXPECT_THROW((void)decoder.extend(extension), std::logic_error);
  EXPECT_THROW((void)decoder.step(1), std::logic_error);
}

TEST(ExtendEdgeCases, ExtendPastTheContextWindowThrowsLengthError) {
  ModelSpec spec = mini_gpt2_spec();
  spec.max_positions = 10;
  const TransformerModel model(spec, 1);
  DistributedDecoder decoder(model, PartitionScheme::even(2));
  const Tensor primed = decoder.prime(random_tokens(8, spec.vocab_size, 8));
  EXPECT_THROW((void)decoder.extend(std::vector<TokenId>{1, 2, 3}),
               std::length_error);
  // Validation-only failure: the slot still has room for the 2 that fit.
  EXPECT_EQ(decoder.extend(std::vector<TokenId>{1, 2}).rows(), 1U);
}

// --- Server integration ----------------------------------------------------

TEST(ServerSpeculative, DraftedServingMatchesPlainServingAndCountsAccepts) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  constexpr std::size_t kRequests = 4;
  constexpr std::size_t kNewTokens = 12;
  std::vector<std::vector<TokenId>> prompts;
  for (std::size_t i = 0; i < kRequests; ++i) {
    prompts.push_back(random_tokens(6 + i, model.spec().vocab_size, 500 + i));
  }
  // Plain serving reference.
  std::vector<std::vector<TokenId>> plain;
  {
    InferenceServer server(
        model, InferenceServer::Options{.scheme = PartitionScheme::even(2),
                                        .max_batch = 2});
    std::vector<std::future<std::vector<TokenId>>> futures;
    for (const auto& prompt : prompts) {
      futures.push_back(server.submit_generate(prompt, kNewTokens));
    }
    for (auto& future : futures) plain.push_back(future.get());
  }
  obs::MetricsRegistry metrics;
  obs::TelemetryHub telemetry;
  InferenceServer::Options opts{.scheme = PartitionScheme::even(2),
                                .max_batch = 2,
                                .metrics = &metrics,
                                .telemetry = &telemetry,
                                .telemetry_period = 30.0};
  // Drafting with the target model itself: every draft lands, so the
  // accepted counter must move and the rejected one stay small.
  opts.drafter_factory = [&model] {
    return std::make_unique<ModelDrafter>(model);
  };
  opts.max_draft_tokens = 3;
  InferenceServer server(model, opts);
  std::vector<std::future<std::vector<TokenId>>> futures;
  for (const auto& prompt : prompts) {
    futures.push_back(server.submit_generate(prompt, kNewTokens));
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(futures[i].get(), plain[i]) << "request " << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.failed, 0U);
  EXPECT_GT(stats.spec_accepted, 0U);
  // Perfect drafter: at most the final round of each request trims.
  EXPECT_GE(stats.spec_accepted, stats.spec_rejected);
  EXPECT_EQ(metrics.counter("server.spec_accepted").value(),
            stats.spec_accepted);
  EXPECT_EQ(metrics.counter("server.spec_rejected").value(),
            stats.spec_rejected);
  // The live gauge agrees with the counters.
  const auto snapshot = telemetry.sample();
  bool saw_gauge = false;
  for (const auto& [name, value] : snapshot.values) {
    if (name == "server.spec_accept_rate") {
      saw_gauge = true;
      const double expected =
          static_cast<double>(stats.spec_accepted) /
          static_cast<double>(stats.spec_accepted + stats.spec_rejected);
      EXPECT_NEAR(value, expected, 1e-9);
    }
  }
  EXPECT_TRUE(saw_gauge);
}

TEST(ServerSpeculative, LookupDrafterServesRepetitiveTextCorrectly) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  // A strongly periodic prompt plays to prompt-lookup drafting; the result
  // must match plain greedy serving regardless of how many drafts land.
  std::vector<TokenId> prompt;
  for (int i = 0; i < 4; ++i) {
    prompt.insert(prompt.end(), {11, 23, 5, 11, 23, 5});
  }
  constexpr std::size_t kNewTokens = 10;
  std::vector<TokenId> plain;
  {
    InferenceServer server(
        model, InferenceServer::Options{.scheme = PartitionScheme::even(2)});
    plain = server.submit_generate(prompt, kNewTokens).get();
  }
  InferenceServer::Options opts{.scheme = PartitionScheme::even(2)};
  opts.drafter_factory = [] {
    return std::make_unique<PromptLookupDrafter>();
  };
  InferenceServer server(model, opts);
  EXPECT_EQ(server.submit_generate(prompt, kNewTokens).get(), plain);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1U);
  EXPECT_GT(stats.spec_accepted + stats.spec_rejected, 0U);
}

}  // namespace
}  // namespace voltage
