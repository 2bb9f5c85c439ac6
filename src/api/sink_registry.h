// Kind -> factory registry for ResultSinks.
//
// Output destinations become one string, `kind:rest`, resolved the same way
// balancing policies and frequency governors already are - so `eastool
// --sink jsonl:out.jsonl`, a bench flag, and a serve-mode request all name
// their sink instead of hard-wiring a class. Built-in kinds:
//
//   csv:PATH          summary CSV to PATH (CsvSink, no trace)
//   trace:PATH        per-CPU thermal trace CSV to PATH (CsvSink, no summary)
//   jsonl:PATH        one JSON object per record to PATH; `jsonl:-` streams
//                     to stdout
//   plot:PATH         paper-style ASCII thermal plot; `plot:-` to stdout
//
// The part after the first ':' is passed to the sink verbatim, so paths may
// themselves contain ':'. Unknown kinds and empty paths come back as a
// structured RequestError (the same type request parsing uses), which lets
// eastool and the service render/serialize sink mistakes through one path.

#ifndef SRC_API_SINK_REGISTRY_H_
#define SRC_API_SINK_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>

#include "src/api/request_error.h"
#include "src/api/result_sink.h"
#include "src/base/registry.h"

namespace eas {

// A factory receives the spec's remainder (everything after `kind:`).
// Default-constructs empty (tests build private ones; Global() is the
// shared, builtin-populated instance).
class SinkRegistry
    : public Registry<std::function<std::unique_ptr<ResultSink>(const std::string& rest)>> {
 public:
  using Factory = Entry;

  // The process-wide registry, with the built-in kinds pre-registered.
  static SinkRegistry& Global();

  // Builds the sink `spec` ("kind:rest") describes; a RequestError naming
  // the known kinds for an unknown kind, or the malformed spec.
  Expected<std::unique_ptr<ResultSink>> Create(const std::string& spec) const;
};

// Registers the built-in sink kinds into `registry` (exposed for tests that
// build private registries; Global() already includes them).
void RegisterBuiltinSinks(SinkRegistry& registry);

}  // namespace eas

#endif  // SRC_API_SINK_REGISTRY_H_
