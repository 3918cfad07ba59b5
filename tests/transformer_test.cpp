// Unit tests for the transformer substrate: attention reference path,
// layers, embeddings, heads, full models and the toy tokenizer.
#include <gtest/gtest.h>

#include "partition/decode_attention.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "transformer/attention.h"
#include "transformer/ffn.h"
#include "transformer/layer.h"
#include "transformer/model.h"
#include "transformer/tokenizer.h"
#include "transformer/weights.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

LayerConfig small_config(bool causal = false) {
  return LayerConfig{.hidden = 32,
                     .heads = 4,
                     .head_dim = 8,
                     .ffn_dim = 64,
                     .activation = Activation::kGelu,
                     .causal = causal};
}

TEST(LayerConfig, ValidatesHeadGeometry) {
  LayerConfig bad = small_config();
  bad.head_dim = 7;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  LayerConfig zero = small_config();
  zero.ffn_dim = 0;
  EXPECT_THROW(zero.validate(), std::invalid_argument);
  EXPECT_NO_THROW(small_config().validate());
}

TEST(Weights, ShapesMatchConfig) {
  Rng rng(1);
  const LayerConfig cfg = small_config();
  const LayerWeights w = init_layer_weights(cfg, rng);
  ASSERT_EQ(w.attention.heads.size(), cfg.heads);
  EXPECT_EQ(w.attention.heads[0].wq.rows(), cfg.hidden);
  EXPECT_EQ(w.attention.heads[0].wq.cols(), cfg.head_dim);
  EXPECT_EQ(w.attention.wo.rows(), cfg.heads * cfg.head_dim);
  EXPECT_EQ(w.attention.wo.cols(), cfg.hidden);
  EXPECT_EQ(w.ffn.w1.cols(), cfg.ffn_dim);
  EXPECT_EQ(w.ffn.w2.rows(), cfg.ffn_dim);
  EXPECT_GT(w.parameter_count(), 0U);
}

TEST(Weights, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  const LayerConfig cfg = small_config();
  EXPECT_EQ(init_layer_weights(cfg, a).attention.heads[0].wq,
            init_layer_weights(cfg, b).attention.heads[0].wq);
}

// --- attention ---------------------------------------------------------------

TEST(Attention, OutputShape) {
  Rng rng(2);
  const LayerConfig cfg = small_config();
  const LayerWeights w = init_layer_weights(cfg, rng);
  const Tensor x = rng.normal_tensor(10, cfg.hidden, 1.0F);
  const Tensor out = multi_head_attention(x, w.attention, cfg);
  EXPECT_EQ(out.rows(), 10U);
  EXPECT_EQ(out.cols(), cfg.hidden);
}

TEST(Attention, UniformKeysGiveUniformWeights) {
  // With identical rows in x, attention output at every position equals the
  // value projection of that row (softmax over identical scores is uniform).
  Rng rng(3);
  const LayerConfig cfg = small_config();
  const LayerWeights w = init_layer_weights(cfg, rng);
  Tensor x(6, cfg.hidden);
  const Tensor row = rng.normal_tensor(1, cfg.hidden, 1.0F);
  for (std::size_t r = 0; r < 6; ++r) x.set_rows(r, row);
  const Tensor out = multi_head_attention(x, w.attention, cfg);
  for (std::size_t r = 1; r < 6; ++r) {
    for (std::size_t c = 0; c < cfg.hidden; ++c) {
      EXPECT_NEAR(out(r, c), out(0, c), 1e-5F);
    }
  }
}

TEST(Attention, CausalMaskZeroesFuture) {
  Tensor scores = Tensor::filled(3, 5, 1.0F);
  apply_causal_mask(scores, 1);  // row 0 is global position 1
  const Tensor probs = softmax_rows(scores);
  // Row 0 (global pos 1) may attend to cols 0..1 only.
  EXPECT_EQ(probs(0, 2), 0.0F);
  EXPECT_EQ(probs(0, 4), 0.0F);
  EXPECT_NEAR(probs(0, 0) + probs(0, 1), 1.0F, 1e-5F);
  // Row 2 (global pos 3) attends to cols 0..3.
  EXPECT_EQ(probs(2, 4), 0.0F);
  EXPECT_NEAR(probs(2, 0), 0.25F, 1e-5F);
}

TEST(Attention, CausalOutputIgnoresFutureTokens) {
  // Changing a future token must not change earlier positions' outputs.
  Rng rng(4);
  const LayerConfig cfg = small_config(/*causal=*/true);
  const LayerWeights w = init_layer_weights(cfg, rng);
  Tensor x = rng.normal_tensor(8, cfg.hidden, 1.0F);
  const Tensor out1 = multi_head_attention(x, w.attention, cfg);
  for (std::size_t c = 0; c < cfg.hidden; ++c) x(7, c) += 5.0F;
  const Tensor out2 = multi_head_attention(x, w.attention, cfg);
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < cfg.hidden; ++c) {
      EXPECT_NEAR(out1(r, c), out2(r, c), 1e-5F) << "row " << r;
    }
  }
  // ... while the changed position itself does change.
  EXPECT_GT(max_abs_diff(out1.slice_rows(7, 8), out2.slice_rows(7, 8)),
            1e-3F);
}

TEST(Ffn, PositionWise) {
  // FFN applied to a sequence equals FFN applied row by row.
  Rng rng(5);
  const LayerConfig cfg = small_config();
  const LayerWeights w = init_layer_weights(cfg, rng);
  const Tensor x = rng.normal_tensor(5, cfg.hidden, 1.0F);
  const Tensor full = ffn_forward(x, w.ffn, cfg.activation);
  for (std::size_t r = 0; r < 5; ++r) {
    const Tensor row = ffn_forward(x.slice_rows(r, r + 1), w.ffn,
                                   cfg.activation);
    EXPECT_TRUE(allclose(full.slice_rows(r, r + 1), row, 1e-5F));
  }
}

TEST(Layer, ForwardShapeAndDeterminism) {
  Rng rng(6);
  const LayerConfig cfg = small_config();
  const TransformerLayer layer(cfg, init_layer_weights(cfg, rng));
  const Tensor x = rng.normal_tensor(9, cfg.hidden, 1.0F);
  const Tensor a = layer.forward(x);
  const Tensor b = layer.forward(x);
  EXPECT_EQ(a.rows(), 9U);
  EXPECT_EQ(a.cols(), cfg.hidden);
  EXPECT_EQ(a, b);
}

TEST(Layer, OutputIsLayerNormalized) {
  Rng rng(7);
  const LayerConfig cfg = small_config();
  const TransformerLayer layer(cfg, init_layer_weights(cfg, rng));
  const Tensor out =
      layer.forward(rng.normal_tensor(4, cfg.hidden, 1.0F));
  for (std::size_t r = 0; r < out.rows(); ++r) {
    float mean = 0.0F;
    for (const float v : out.row(r)) mean += v;
    EXPECT_NEAR(mean / static_cast<float>(cfg.hidden), 0.0F, 1e-4F);
  }
}

// --- embeddings --------------------------------------------------------------

TEST(TokenEmbedding, ShapeAndPositionDependence) {
  Rng rng(8);
  const TokenEmbedding emb(100, 16, 32, rng);
  const std::vector<TokenId> tokens{5, 5, 9};
  const Tensor x = emb.embed(tokens);
  EXPECT_EQ(x.rows(), 3U);
  EXPECT_EQ(x.cols(), 32U);
  // Same token at different positions embeds differently.
  EXPECT_GT(max_abs_diff(x.slice_rows(0, 1), x.slice_rows(1, 2)), 1e-4F);
}

TEST(TokenEmbedding, RejectsBadInput) {
  Rng rng(9);
  const TokenEmbedding emb(100, 4, 8, rng);
  const std::vector<TokenId> too_long{1, 2, 3, 4, 5};
  EXPECT_THROW((void)emb.embed(too_long), std::invalid_argument);
  const std::vector<TokenId> bad_id{150};
  EXPECT_THROW((void)emb.embed(bad_id), std::out_of_range);
  const std::vector<TokenId> negative{-1};
  EXPECT_THROW((void)emb.embed(negative), std::out_of_range);
}

TEST(PatchEmbedding, SequenceGeometry) {
  Rng rng(10);
  const PatchEmbedding emb(32, 8, 3, 64, rng);
  EXPECT_EQ(emb.sequence_length(), 17U);  // 16 patches + CLS
  const Tensor x = emb.embed(random_image(32, 3, 1));
  EXPECT_EQ(x.rows(), 17U);
  EXPECT_EQ(x.cols(), 64U);
}

TEST(PatchEmbedding, RejectsWrongImage) {
  Rng rng(11);
  const PatchEmbedding emb(32, 8, 3, 64, rng);
  EXPECT_THROW((void)emb.embed(Image(16, 16, 3)), std::invalid_argument);
  EXPECT_THROW((void)emb.embed(Image(32, 32, 1)), std::invalid_argument);
}

TEST(PatchEmbedding, PatchContentMatters) {
  Rng rng(12);
  const PatchEmbedding emb(16, 8, 1, 8, rng);
  Image img(16, 16, 1);
  const Tensor a = emb.embed(img);
  img.at(0, 0, 0) = 5.0F;  // inside patch 0 only
  const Tensor b = emb.embed(img);
  // Patch 0 is sequence row 1 (row 0 is CLS); only it should change.
  EXPECT_GT(max_abs_diff(a.slice_rows(1, 2), b.slice_rows(1, 2)), 1e-4F);
  EXPECT_TRUE(allclose(a.slice_rows(2, 5), b.slice_rows(2, 5), 1e-6F));
  EXPECT_TRUE(allclose(a.slice_rows(0, 1), b.slice_rows(0, 1), 1e-6F));
}

// --- heads -------------------------------------------------------------------

TEST(Heads, ClassifierPoolingModes) {
  Rng rng(13);
  const ClassifierHead cls(16, 3, Pooling::kClsToken, rng);
  Rng rng2(13);
  const ClassifierHead last(16, 3, Pooling::kLastToken, rng2);
  Rng rng3(13);
  const ClassifierHead mean(16, 3, Pooling::kMeanPool, rng3);

  Rng data(14);
  const Tensor h = data.normal_tensor(5, 16, 1.0F);
  EXPECT_EQ(cls.forward(h).cols(), 3U);
  // CLS pooling only reads row 0; last-token pooling only reads row 4.
  Tensor h2 = h;
  for (std::size_t c = 0; c < 16; ++c) h2(2, c) += 1.0F;
  EXPECT_TRUE(allclose(cls.forward(h), cls.forward(h2), 1e-6F));
  EXPECT_TRUE(allclose(last.forward(h), last.forward(h2), 1e-6F));
  EXPECT_GT(max_abs_diff(mean.forward(h), mean.forward(h2)), 1e-5F);
}

TEST(Heads, LmHeadReadsLastPositionOnly) {
  Rng rng(15);
  const LmHead head(16, 50, rng);
  Rng data(16);
  const Tensor h = data.normal_tensor(4, 16, 1.0F);
  Tensor h2 = h;
  for (std::size_t c = 0; c < 16; ++c) h2(0, c) += 2.0F;
  EXPECT_EQ(head.forward_last(h).cols(), 50U);
  EXPECT_TRUE(allclose(head.forward_last(h), head.forward_last(h2), 1e-6F));
}

TEST(Heads, EmptySequenceThrows) {
  Rng rng(17);
  const ClassifierHead cls(8, 2, Pooling::kClsToken, rng);
  EXPECT_THROW((void)cls.forward(Tensor(0, 8)), std::invalid_argument);
}

// W_O, W1, W2 and the LM head are stored pre-packed, so their GEMMs never
// pack B per call: not at one row (the panel GEMV) and not at three (the
// blocked loop) — in an FFN, a decode tail's W_O projection or a batched
// LM head. The counter is live: the same GEMM on a row-major weight packs.
TEST(PackedWeights, WeightGemmsNeverPackPerCall) {
  Rng rng(19);
  const LayerConfig cfg = small_config(true);
  const LayerWeights w = init_layer_weights(cfg, rng);
  const LmHead head(cfg.hidden, 50, rng);
  for (const std::size_t rows : {1U, 3U}) {
    SCOPED_TRACE(rows);
    const Tensor x = rng.normal_tensor(rows, cfg.hidden, 1.0F);
    // Merged partials: every head's (max, denominator, weighted values).
    Tensor merged = rng.normal_tensor(
        rows, softmax_partial_cols(cfg.heads, cfg.head_dim), 1.0F);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t h = 0; h < cfg.heads; ++h) {
        merged(r, h * (cfg.head_dim + 2) + 1) = 2.0F;
      }
    }
    const std::uint64_t before = detail::pack_b_count();
    EXPECT_EQ(ffn_forward(x, w.ffn, cfg.activation).rows(), rows);
    EXPECT_EQ(softmax_merge_finalize(merged, w.attention, cfg).rows(), rows);
    EXPECT_EQ(head.forward_rows(x).rows(), rows);
    EXPECT_EQ(detail::pack_b_count(), before);
  }
  const std::uint64_t before = detail::pack_b_count();
  (void)matmul(rng.normal_tensor(3, cfg.hidden, 1.0F), w.ffn.w1.unpack());
  EXPECT_GT(detail::pack_b_count(), before);
}

// --- models ------------------------------------------------------------------

TEST(ModelZoo, PaperSpecsMatchArchitectures) {
  const ModelSpec bert = bert_large_spec();
  EXPECT_EQ(bert.num_layers, 24U);
  EXPECT_EQ(bert.layer.hidden, 1024U);
  EXPECT_EQ(bert.layer.heads, 16U);
  EXPECT_NO_THROW(bert.validate());

  const ModelSpec vit = vit_base_spec();
  EXPECT_EQ(vit.vit_sequence_length(), 197U);  // 14*14 patches + CLS
  EXPECT_NO_THROW(vit.validate());

  const ModelSpec gpt2 = gpt2_spec();
  EXPECT_TRUE(gpt2.layer.causal);
  EXPECT_EQ(gpt2.vocab_size, 50257U);
  EXPECT_NO_THROW(gpt2.validate());
}

TEST(ModelZoo, AnalyticParameterCountsMatchKnownSizes) {
  // Published sizes (transformer stack + embeddings + head), in millions.
  // Small deviations are expected: our attention carries no Q/K/V biases
  // (paper Eq. 1) and the GPT-2 LM head is untied.
  const auto millions = [](const ModelSpec& spec) {
    return static_cast<double>(spec_parameter_count(spec)) / 1e6;
  };
  EXPECT_NEAR(millions(bert_large_spec()), 335.0, 12.0);
  EXPECT_NEAR(millions(bert_base_spec()), 109.0, 6.0);
  EXPECT_NEAR(millions(distilbert_spec()), 66.0, 4.0);
  EXPECT_NEAR(millions(vit_base_spec()), 86.0, 5.0);
  EXPECT_NEAR(millions(vit_large_spec()), 304.0, 12.0);
  // GPT-2 small is 124M with tied embeddings; untied adds ~38M.
  EXPECT_NEAR(millions(gpt2_spec()), 124.0 + 38.6, 8.0);
}

TEST(ModelZoo, AnalyticCountMatchesMaterializedModel) {
  // For specs small enough to build, the closed form must equal the real
  // parameter count exactly.
  for (const ModelSpec& spec :
       {mini_bert_spec(), mini_vit_spec(), mini_gpt2_spec()}) {
    EXPECT_EQ(spec_parameter_count(spec),
              make_model(spec).parameter_count())
        << spec.name;
  }
}

TEST(ModelZoo, ExtendedSpecsValidate) {
  for (const ModelSpec& spec : {bert_base_spec(), distilbert_spec(),
                                gpt2_medium_spec(), vit_large_spec()}) {
    EXPECT_NO_THROW(spec.validate()) << spec.name;
    EXPECT_EQ(spec.layer.heads * spec.layer.head_dim, spec.layer.hidden);
  }
  EXPECT_TRUE(gpt2_medium_spec().layer.causal);
  EXPECT_FALSE(vit_large_spec().layer.causal);
}

TEST(ModelZoo, RegistryLookups) {
  ASSERT_TRUE(spec_by_name("gpt2").has_value());
  EXPECT_EQ(spec_by_name("gpt2")->num_layers, 12U);
  // Short aliases resolve to the paper's evaluation models.
  EXPECT_EQ(spec_by_name("bert")->name, "bert-large-uncased");
  EXPECT_EQ(spec_by_name("vit")->name, "vit-base-patch16-224");
  EXPECT_FALSE(spec_by_name("no-such-model").has_value());
  // Every registered name resolves to itself.
  for (const std::string& name : registered_spec_names()) {
    ASSERT_TRUE(spec_by_name(name).has_value()) << name;
    EXPECT_EQ(spec_by_name(name)->name, name);
  }
}

TEST(Model, MiniBertEndToEnd) {
  const TransformerModel model = make_model(mini_bert_spec());
  const auto tokens = random_tokens(20, model.spec().vocab_size, 1);
  const Tensor logits = model.infer(tokens);
  EXPECT_EQ(logits.rows(), 1U);
  EXPECT_EQ(logits.cols(), 2U);
}

TEST(Model, MiniVitEndToEnd) {
  const TransformerModel model = make_model(mini_vit_spec());
  const Tensor logits = model.infer(random_image(32, 3, 2));
  EXPECT_EQ(logits.cols(), 10U);
}

TEST(Model, MiniGpt2EndToEnd) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto tokens = random_tokens(16, model.spec().vocab_size, 3);
  const Tensor logits = model.infer(tokens);
  EXPECT_EQ(logits.cols(), model.spec().vocab_size);
}

TEST(Model, DeterministicAcrossInstances) {
  const TransformerModel a = make_model(mini_bert_spec(), 5);
  const TransformerModel b = make_model(mini_bert_spec(), 5);
  const auto tokens = random_tokens(12, a.spec().vocab_size, 4);
  EXPECT_EQ(a.infer(tokens), b.infer(tokens));
}

TEST(Model, SeedChangesWeights) {
  const TransformerModel a = make_model(mini_bert_spec(), 5);
  const TransformerModel b = make_model(mini_bert_spec(), 6);
  const auto tokens = random_tokens(12, a.spec().vocab_size, 4);
  EXPECT_GT(max_abs_diff(a.infer(tokens), b.infer(tokens)), 1e-5F);
}

TEST(Model, WrongInputKindThrows) {
  const TransformerModel text = make_model(mini_bert_spec());
  EXPECT_THROW((void)text.preprocess(Image(32, 32, 3)), std::logic_error);
  const TransformerModel vision = make_model(mini_vit_spec());
  const std::vector<TokenId> tokens{1, 2};
  EXPECT_THROW((void)vision.preprocess(tokens), std::logic_error);
}

TEST(Model, ParameterCountPositiveAndSpecDependent) {
  const TransformerModel small = make_model(mini_gpt2_spec());
  EXPECT_GT(small.parameter_count(), 100000U);
}

// --- tokenizer ---------------------------------------------------------------

TEST(Tokenizer, SplitsOnWhitespace) {
  const HashingTokenizer tok(1000);
  const auto ids = tok.encode("hello  world\n  foo");
  EXPECT_EQ(ids.size(), 3U);
  for (const TokenId id : ids) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, 1000);
  }
}

TEST(Tokenizer, DeterministicAndWordSensitive) {
  const HashingTokenizer tok(100000);
  EXPECT_EQ(tok.encode("same words"), tok.encode("same words"));
  EXPECT_NE(tok.encode("alpha")[0], tok.encode("beta")[0]);
}

TEST(Tokenizer, EmptyInput) {
  const HashingTokenizer tok(100);
  EXPECT_TRUE(tok.encode("").empty());
  EXPECT_TRUE(tok.encode("   \t\n").empty());
}

TEST(Workloads, RandomTokensAndImageDeterministic) {
  EXPECT_EQ(random_tokens(50, 1000, 9), random_tokens(50, 1000, 9));
  EXPECT_NE(random_tokens(50, 1000, 9), random_tokens(50, 1000, 10));
  const Image a = random_image(16, 3, 1);
  const Image b = random_image(16, 3, 1);
  EXPECT_EQ(a.pixels, b.pixels);
}

}  // namespace
}  // namespace voltage
