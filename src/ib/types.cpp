#include "ib/types.hpp"

namespace ib {

const char* to_string(WcStatus s) {
  switch (s) {
    case WcStatus::kSuccess:
      return "success";
    case WcStatus::kLocalProtectionError:
      return "local-protection-error";
    case WcStatus::kRemoteAccessError:
      return "remote-access-error";
    case WcStatus::kTransportError:
      return "transport-error";
    case WcStatus::kFlushError:
      return "flush-error";
  }
  return "unknown";
}

}  // namespace ib
