// RequestError / Expected<T>: structured request diagnostics.
//
// The request surface used to report failure as bool-plus-std::string*: the
// caller got prose it could print but nothing it could branch on, and the
// daemon (src/service) cannot send prose alone - a client needs to know
// *whether* a rejection was a malformed request, an unknown registry name or
// backpressure, and which key/line offended. A RequestError carries the
// machine-readable triple (code, key, line) next to the exact legacy
// message, and Render() reproduces the historical diagnostic byte for byte,
// so eastool's stderr output is pinned unchanged while the daemon can
// serialize the structure (see RequestErrorToJson in src/service/wire.h).
//
// Expected<T> is the small success-or-RequestError carrier the request
// functions return; it is deliberately minimal (no monadic combinators),
// just enough to replace std::optional<T> + std::string* out-param pairs.

#ifndef SRC_API_REQUEST_ERROR_H_
#define SRC_API_REQUEST_ERROR_H_

#include <cstddef>
#include <optional>
#include <string>
#include <utility>

namespace eas {

enum class RequestErrorCode {
  kSyntax,        // request text is not key = value lines
  kUnknownKey,    // key is not a request-file key
  kDuplicateKey,  // key given twice in one request
  kEmptyValue,    // key with no value
  kBadValue,      // value fails the key's validation
  kUnknownName,   // scenario/policy/governor name not registered
  kQueueFull,     // service backpressure: bounded work queue cannot admit
  kShuttingDown,  // service is draining; no new submissions
  kProtocol,      // malformed service wire message
  kIo,            // socket/file transport failure
};

// Stable wire spelling of a code ("bad-value", "queue-full", ...): what the
// daemon serializes and clients/tests match on.
const char* RequestErrorCodeName(RequestErrorCode code);

// The code a wire spelling names; std::nullopt for a spelling none has.
std::optional<RequestErrorCode> RequestErrorCodeFromName(const std::string& name);

struct RequestError {
  RequestErrorCode code = RequestErrorCode::kSyntax;

  // The offending request key ("seed", "scenario", ...); empty when the
  // error is not attributable to one (syntax errors, transport failures).
  std::string key;

  // 1-based line of the request text the error was found on; 0 when the
  // error has no line (field application, resolution, service errors).
  std::size_t line = 0;

  // The diagnostic, without any line prefix. Render() is the full legacy
  // message; keeping the prefix out of `message` lets the daemon report the
  // line as a field instead of prose.
  std::string message;

  // Exactly the string the bool-plus-std::string* convention produced:
  // "line N: <message>" when the error names a line, `message` otherwise.
  std::string Render() const {
    return line > 0 ? "line " + std::to_string(line) + ": " + message : message;
  }
};

// Success-or-error result of the request functions. Holds either a T or a
// RequestError; the accessors assume the caller checked ok() (they assert
// via std::optional's own contract in debug builds).
template <typename T>
class Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}              // NOLINT(runtime/explicit)
  Expected(RequestError error) : error_(std::move(error)) {}   // NOLINT(runtime/explicit)

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  T& value() { return *value_; }
  const T& value() const { return *value_; }
  T& operator*() { return *value_; }
  const T& operator*() const { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }

  const RequestError& error() const { return *error_; }

 private:
  std::optional<T> value_;
  std::optional<RequestError> error_;
};

}  // namespace eas

#endif  // SRC_API_REQUEST_ERROR_H_
