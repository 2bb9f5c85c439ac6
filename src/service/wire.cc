#include "src/service/wire.h"

#include <cstdio>
#include <optional>

#include "src/api/result_sink.h"
#include "src/base/text.h"

namespace eas {
namespace {

// Extracts the string value of `"field": "..."` from a flat JSON object
// produced by this file (no nested objects, escapes as JsonEscape writes
// them). Empty when absent.
std::string StringFieldOf(const std::string& json, const std::string& field) {
  const std::string needle = "\"" + field + "\": \"";
  const std::size_t start = json.find(needle);
  if (start == std::string::npos) {
    return "";
  }
  std::string out;
  for (std::size_t i = start + needle.size(); i < json.size(); ++i) {
    const char c = json[i];
    if (c == '\\' && i + 1 < json.size()) {
      const char next = json[++i];
      switch (next) {
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'u':
          // Only \u00XX controls are ever emitted; decode the low byte.
          if (i + 4 < json.size()) {
            const auto nibble = [](char h) { return h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10; };
            out += static_cast<char>(nibble(json[i + 3]) * 16 + nibble(json[i + 4]));
            i += 4;
          }
          break;
        default:
          out += next;
      }
      continue;
    }
    if (c == '"') {
      break;
    }
    out += c;
  }
  return out;
}

// The text of `"field": <number>` in a flat JSON object produced by this
// file: everything up to the next ',' or '}'. std::nullopt when absent.
std::optional<std::string> NumberTextOf(const std::string& json, const std::string& field) {
  const std::string needle = "\"" + field + "\": ";
  const std::size_t start = json.find(needle);
  if (start == std::string::npos) {
    return std::nullopt;
  }
  const std::size_t value = start + needle.size();
  return json.substr(value, json.find_first_of(",}", value) - value);
}

RequestError MalformedPayload(const std::string& json) {
  return RequestError{RequestErrorCode::kProtocol, "", 0, "malformed error payload: " + json};
}

}  // namespace

std::string RequestErrorToJson(const RequestError& error) {
  std::string json = "{\"code\": \"";
  json += RequestErrorCodeName(error.code);
  json += "\"";
  if (!error.key.empty()) {
    json += ", \"key\": \"" + JsonEscape(error.key) + "\"";
  }
  if (error.line > 0) {
    json += ", \"line\": " + std::to_string(error.line);
  }
  json += ", \"message\": \"" + JsonEscape(error.message) + "\"";
  json += ", \"render\": \"" + JsonEscape(error.Render()) + "\"";
  json += "}";
  return json;
}

RequestError RequestErrorFromJson(const std::string& json) {
  const std::string code = StringFieldOf(json, "code");
  if (code.empty()) {
    return MalformedPayload(json);
  }
  // The line number takes the request file's integer rule: a sign, a
  // fraction or an exponent makes the whole payload malformed.
  std::uint64_t line = 0;
  const std::optional<std::string> line_text = NumberTextOf(json, "line");
  if (line_text.has_value() && !ParseUint(*line_text, &line)) {
    return MalformedPayload(json);
  }
  RequestError error;
  // An unrecognized spelling (a newer server) degrades to kProtocol but
  // keeps the message intact.
  error.code = RequestErrorCodeFromName(code).value_or(RequestErrorCode::kProtocol);
  error.key = StringFieldOf(json, "key");
  error.line = static_cast<std::size_t>(line);
  error.message = StringFieldOf(json, "message");
  return error;
}

std::string ServiceStatusToJson(const ServiceStatusSnapshot& status) {
  char buffer[768];
  std::snprintf(buffer, sizeof(buffer),
                "{\"queue_capacity\": %zu, \"queued\": %zu, \"in_flight\": %zu, "
                "\"completed_runs\": %zu, \"completed_submissions\": %zu, "
                "\"rejected_submissions\": %zu, \"workers\": %zu, \"uptime_s\": %.3f, "
                "\"runs_per_s\": %.3f, \"scenario_cache_hits\": %zu, "
                "\"scenario_cache_misses\": %zu, \"cache_scenario_hits\": %zu, "
                "\"cache_scenario_misses\": %zu, \"cache_library_hits\": %zu, "
                "\"cache_library_misses\": %zu}",
                status.queue_capacity, status.queued, status.in_flight, status.completed_runs,
                status.completed_submissions, status.rejected_submissions, status.workers,
                status.uptime_s, status.runs_per_s, status.scenario_cache_hits,
                status.scenario_cache_misses, status.cache_scenario_hits,
                status.cache_scenario_misses, status.cache_library_hits,
                status.cache_library_misses);
  return std::string(buffer);
}

}  // namespace eas
