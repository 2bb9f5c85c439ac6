#include "src/service/service_client.h"

#include "src/base/text.h"

namespace eas {
namespace {

RequestError TransportError(std::string message) {
  RequestError error;
  error.code = RequestErrorCode::kIo;
  error.message = std::move(message);
  return error;
}

// Reads "<verb> <a> <b>": the head of a `sub` or `rec` line.
bool ReadPair(const std::string& head, std::uint64_t* a, std::uint64_t* b) {
  const std::vector<std::string> fields = SplitFields(head, ' ');
  return fields.size() == 3 && ParseUint(fields[1], a) && ParseUint(fields[2], b);
}

}  // namespace

Expected<ServiceClient> ServiceClient::Connect(const std::string& socket_path) {
  auto fd = ConnectUnix(socket_path);
  if (!fd.ok()) {
    return fd.error();
  }
  return ServiceClient(*fd);
}

Expected<SubmitOutcome> ServiceClient::SubmitAndStream(
    const std::vector<std::string>& request_texts,
    const std::function<void(const ClientRecord&)>& on_record) {
  if (request_texts.empty()) {
    return SubmitOutcome{};
  }
  if (request_texts.size() > 1 &&
      !channel_->WriteLine("batch " + std::to_string(request_texts.size()))) {
    return TransportError("connection lost while submitting");
  }
  for (const std::string& text : request_texts) {
    if (!channel_->WriteLine("run " + text)) {
      return TransportError("connection lost while submitting");
    }
  }

  SubmitOutcome outcome;
  std::size_t open_submissions = 0;
  bool acks_pending = true;
  std::string line;
  // Collect `sub` acks (or the group's `err`), then stream `rec` lines
  // until every admitted submission has reported `ok`.
  while ((acks_pending || open_submissions > 0) && channel_->ReadLine(&line)) {
    if (line.rfind("sub ", 0) == 0) {
      std::uint64_t id = 0;
      std::uint64_t records = 0;
      if (!ReadPair(line, &id, &records)) {
        return TransportError("unexpected server message: \"" + line + "\"");
      }
      outcome.submissions.emplace_back(id, static_cast<std::size_t>(records));
      ++open_submissions;
      if (outcome.submissions.size() == request_texts.size()) {
        acks_pending = false;
      }
      continue;
    }
    if (line.rfind("rec ", 0) == 0) {
      // The JSON follows the second number's space. Without a first one,
      // npos + 1 wraps to the verb's space, a head ReadPair rejects.
      const std::size_t json = line.find(' ', line.find(' ', 4) + 1);
      ClientRecord record;
      std::uint64_t index = 0;
      if (json == std::string::npos ||
          !ReadPair(line.substr(0, json), &record.submission, &index)) {
        return TransportError("unexpected server message: \"" + line + "\"");
      }
      record.index = static_cast<std::size_t>(index);
      record.jsonl = line.substr(json + 1);
      ++outcome.records;
      if (on_record) {
        on_record(record);
      }
      continue;
    }
    if (line.rfind("ok ", 0) == 0) {
      --open_submissions;
      continue;
    }
    if (line.rfind("err ", 0) == 0) {
      return RequestErrorFromJson(line.substr(4));
    }
    return TransportError("unexpected server message: \"" + line + "\"");
  }
  if (acks_pending || open_submissions > 0) {
    return TransportError("connection lost mid-stream");
  }
  return outcome;
}

Expected<std::string> ServiceClient::QueryStatus() {
  if (!channel_->WriteLine("status")) {
    return TransportError("connection lost");
  }
  std::string line;
  if (!channel_->ReadLine(&line)) {
    return TransportError("connection lost awaiting status");
  }
  if (line.rfind("status ", 0) != 0) {
    if (line.rfind("err ", 0) == 0) {
      return RequestErrorFromJson(line.substr(4));
    }
    return TransportError("unexpected server message: \"" + line + "\"");
  }
  return line.substr(7);
}

Expected<bool> ServiceClient::RequestShutdown() {
  if (!channel_->WriteLine("shutdown")) {
    return TransportError("connection lost");
  }
  std::string line;
  while (channel_->ReadLine(&line)) {
    if (line == "end") {
      return true;
    }
  }
  return TransportError("connection lost awaiting shutdown ack");
}

}  // namespace eas
