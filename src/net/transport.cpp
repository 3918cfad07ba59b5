#include "net/transport.h"

#include <stdexcept>

#include "net/fabric.h"
#include "net/socket_fabric.h"

namespace voltage {

std::unique_ptr<Transport> make_transport(TransportKind kind,
                                          std::size_t devices) {
  switch (kind) {
    case TransportKind::kInMemory:
      return std::make_unique<Fabric>(devices);
    case TransportKind::kUnixSocket:
      return std::make_unique<SocketFabric>(devices);
  }
  throw std::logic_error("make_transport: bad kind");
}

}  // namespace voltage
