// The wire codecs on their own: RequestError's JSON form both ways, and the
// client's reading of server lines it did not expect.

#include <gtest/gtest.h>
#include <unistd.h>

#include <set>
#include <string>

#include "src/service/service_client.h"
#include "src/service/socket_io.h"
#include "src/service/wire.h"

namespace eas {
namespace {

TEST(WireTest, EveryErrorCodeRoundTripsByName) {
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(RequestErrorCode::kIo); ++i) {
    const auto code = static_cast<RequestErrorCode>(i);
    const std::string name = RequestErrorCodeName(code);
    EXPECT_NE(name, "unknown") << i;
    EXPECT_TRUE(names.insert(name).second) << name << " names two codes";
    // The message carries every escape JsonEscape writes.
    const std::string message = "bad \"value\"\tfor\\seed\n\x01\x1f";
    const RequestError error{code, "seed", 3, message};
    const RequestError back = RequestErrorFromJson(RequestErrorToJson(error));
    EXPECT_EQ(back.code, code) << name;
    EXPECT_EQ(back.key, "seed") << name;
    EXPECT_EQ(back.line, 3u) << name;
    EXPECT_EQ(back.message, message) << name;
  }
}

TEST(WireTest, ErrorLineIsAnUnsignedInteger) {
  const RequestError error =
      RequestErrorFromJson(R"({"code": "bad-value", "line": 7, "message": "m"})");
  EXPECT_EQ(error.code, RequestErrorCode::kBadValue);
  EXPECT_EQ(error.line, 7u);
  EXPECT_EQ(RequestErrorFromJson(R"({"code": "bad-value", "message": "m"})").line, 0u);
  // Each of these once went through strtod and a cast to size_t; a negative
  // or huge value made that cast undefined.
  for (const char* line : {"-1", "1e30", "3.5", "+3", "0x10", "", " 7", "18446744073709551616",
                           "nan", "\"7\""}) {
    const std::string json =
        std::string(R"({"code": "bad-value", "line": )") + line + R"(, "message": "m"})";
    const RequestError malformed = RequestErrorFromJson(json);
    EXPECT_EQ(malformed.code, RequestErrorCode::kProtocol) << line;
    EXPECT_EQ(malformed.message, "malformed error payload: " + json) << line;
    EXPECT_EQ(malformed.line, 0u) << line;
  }
}

TEST(WireTest, UnknownCodeNameBecomesProtocol) {
  const RequestError error =
      RequestErrorFromJson(R"({"code": "from-a-newer-server", "message": "kept"})");
  EXPECT_EQ(error.code, RequestErrorCode::kProtocol);
  EXPECT_EQ(error.message, "kept");
}

// Serves `replies` to one client submission and returns what the client
// made of them.
Expected<SubmitOutcome> SubmitAgainst(const std::string& name, const std::string& replies,
                                      std::size_t* records_seen) {
  const std::string path = "/tmp/eas_wire_" + name + "_" + std::to_string(::getpid()) + ".sock";
  auto server = UnixServerSocket::Bind(path);
  if (!server.ok()) {
    return server.error();
  }
  auto client = ServiceClient::Connect(path);
  if (!client.ok()) {
    return client.error();
  }
  const std::optional<int> fd = server->Accept(/*timeout_ms=*/2000);
  if (!fd.has_value()) {
    return RequestError{RequestErrorCode::kIo, "", 0, "accept timed out"};
  }
  LineChannel peer(*fd);
  EXPECT_TRUE(peer.WriteLine(replies));
  return client->SubmitAndStream({"workload = hot:1"},
                                 [records_seen](const ClientRecord&) { ++*records_seen; });
}

TEST(WireTest, ClientRejectsMalformedServerLines) {
  for (const char* replies : {"sub 0 1\nrec abc 0 {}\nok 0 1", "sub 0 1\nrec 0 {}\nok 0 1",
                              "sub x 1\nrec 0 0 {}\nok 0 1", "sub 0\nrec 0 0 {}\nok 0 1",
                              "sub 0 +1\nrec 0 0 {}\nok 0 1"}) {
    std::size_t records_seen = 0;
    const auto outcome = SubmitAgainst("malformed", replies, &records_seen);
    ASSERT_FALSE(outcome.ok()) << replies;
    EXPECT_EQ(outcome.error().code, RequestErrorCode::kIo) << replies;
    EXPECT_EQ(outcome.error().message.rfind("unexpected server message: \"", 0), 0u)
        << outcome.error().message;
    EXPECT_EQ(records_seen, 0u) << replies;
  }
  std::size_t records_seen = 0;
  const auto outcome = SubmitAgainst("wellformed", "sub 4 1\nrec 4 0 {\"a\": 1}\nok 4 1",
                                     &records_seen);
  ASSERT_TRUE(outcome.ok()) << outcome.error().Render();
  EXPECT_EQ(records_seen, 1u);
  ASSERT_EQ(outcome->submissions.size(), 1u);
  EXPECT_EQ(outcome->submissions[0].first, 4u);
}

}  // namespace
}  // namespace eas
