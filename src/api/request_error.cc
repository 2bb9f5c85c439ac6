#include "src/api/request_error.h"

#include <utility>

namespace eas {
namespace {

// Every code with its wire spelling; both directions walk this one table.
constexpr std::pair<RequestErrorCode, const char*> kCodeNames[] = {
    {RequestErrorCode::kSyntax, "syntax"},
    {RequestErrorCode::kUnknownKey, "unknown-key"},
    {RequestErrorCode::kDuplicateKey, "duplicate-key"},
    {RequestErrorCode::kEmptyValue, "empty-value"},
    {RequestErrorCode::kBadValue, "bad-value"},
    {RequestErrorCode::kUnknownName, "unknown-name"},
    {RequestErrorCode::kQueueFull, "queue-full"},
    {RequestErrorCode::kShuttingDown, "shutting-down"},
    {RequestErrorCode::kProtocol, "protocol"},
    {RequestErrorCode::kIo, "io"},
};

}  // namespace

const char* RequestErrorCodeName(RequestErrorCode code) {
  for (const auto& [value, name] : kCodeNames) {
    if (value == code) {
      return name;
    }
  }
  return "unknown";
}

std::optional<RequestErrorCode> RequestErrorCodeFromName(const std::string& name) {
  for (const auto& [value, spelling] : kCodeNames) {
    if (name == spelling) {
      return value;
    }
  }
  return std::nullopt;
}

}  // namespace eas
