#include "src/api/sink_registry.h"

#include <utility>

namespace eas {
namespace {

RequestError SinkError(std::string message) {
  RequestError error;
  error.code = RequestErrorCode::kBadValue;
  error.key = "sink";
  error.message = std::move(message);
  return error;
}

}  // namespace

SinkRegistry& SinkRegistry::Global() {
  static SinkRegistry* registry = [] {
    auto* r = new SinkRegistry();
    RegisterBuiltinSinks(*r);
    return r;
  }();
  return *registry;
}

Expected<std::unique_ptr<ResultSink>> SinkRegistry::Create(const std::string& spec) const {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0) {
    return SinkError("bad sink \"" + spec + "\": want kind:path (e.g. jsonl:out.jsonl)");
  }
  const std::string kind = spec.substr(0, colon);
  const std::string rest = spec.substr(colon + 1);
  const std::optional<Factory> factory = Find(kind);
  if (!factory.has_value()) {
    RequestError error = SinkError(UnknownMessage("sink kind", kind));
    error.code = RequestErrorCode::kUnknownName;
    return error;
  }
  if (rest.empty()) {
    return SinkError("bad sink \"" + spec + "\": empty path");
  }
  return (*factory)(rest);
}

void RegisterBuiltinSinks(SinkRegistry& registry) {
  registry.Register("csv", [](const std::string& rest) {
    return std::make_unique<CsvSink>(rest, "");
  });
  registry.Register("trace", [](const std::string& rest) {
    return std::make_unique<CsvSink>("", rest);
  });
  registry.Register("jsonl", [](const std::string& rest) {
    return std::make_unique<JsonlSink>(rest);
  });
  registry.Register("plot", [](const std::string& rest) {
    return std::make_unique<AsciiPlotSink>(rest);
  });
}

}  // namespace eas
