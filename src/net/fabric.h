// In-process message-passing fabric: a full mesh of mailboxes, one per
// device, with blocking tagged receive. This is the transport under the real
// (threaded) runtime and the real collectives; it records byte-accurate
// traffic statistics that the communication-volume experiments read.
#pragma once

#include <utility>

#include "net/mailbox.h"

namespace voltage {

class Fabric final : public MailboxTransport {
 public:
  // `devices` mailboxes, ids 0 .. devices-1. A round keeps one thread per
  // endpoint runnable.
  explicit Fabric(std::size_t devices)
      : MailboxTransport("Fabric", devices, devices) {}

  // Puts the message straight into the destination's mailbox.
  void send(Message message) override {
    stamp_send(message);
    deposit(std::move(message));
  }

 private:
  // Every blocked receiver wakes and throws TransportClosedError(reason).
  void on_close() override {
    for (DeviceId device = 0; device < devices(); ++device) shut(device);
  }
};

}  // namespace voltage
