#include "rpc/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rpc/protocol_v2.h"

namespace hgdb::rpc {
namespace {

TEST(Protocol, UnknownTypeRejected) {
  // A message in the old closed-enum request shape has no v2 envelope: it
  // decodes to a typed malformed-request error with its token echoed.
  const auto decoded = parse_request_v2(R"({"type":"bogus","token":1})");
  EXPECT_EQ(decoded.error, ErrorCode::MalformedRequest);
  EXPECT_EQ(decoded.request.token, 1);
  EXPECT_EQ(parse_request_v2("not json").error, ErrorCode::MalformedRequest);
}

TEST(Protocol, TruncatedRequestPrefixesNeverCrash) {
  RequestV2 request;
  request.command = "breakpoint-add";
  request.token = 3;
  request.payload["filename"] = common::Json("gen.cc");
  request.payload["line"] = common::Json(12);
  request.payload["condition"] = common::Json("sum > 4");
  const std::string full = serialize_request_v2(request);
  ASSERT_TRUE(parse_request_v2(full).ok());
  // parse_request_v2 is total: every prefix decodes to a typed error
  // (never an exception), and none of them is a valid request.
  for (size_t length = 0; length < full.size(); ++length) {
    const auto decoded = parse_request_v2(full.substr(0, length));
    EXPECT_EQ(decoded.error, ErrorCode::MalformedRequest)
        << "prefix length " << length;
  }
}

TEST(Protocol, MalformedServerMessagesAlwaysThrowRuntimeError) {
  // The client-side decoders — parse_server_message_v2 for the envelope,
  // stop_event_fields for a stop payload — fail with std::runtime_error
  // only, never another exception type.
  std::vector<std::string> texts = {
      "",
      "not json",
      "[]",
      R"({"token":1})",                                 // no envelope
      R"({"type":"stop","time":1})",                    // no envelope
      R"({"version":2,"type":"mystery","token":1})",    // unknown type
      R"({"version":2,"type":"response","token":1})",   // no status
      R"({"version":2,"type":"response","token":1,"status":"perhaps"})",
      R"({"version":2,"type":"event","event":"stop","payload":[]})",
  };
  for (const char* payload : {
           R"({"time":"later"})",
           R"({"time":1,"frames":5})",
           R"({"time":1,"frames":[42]})",
           R"({"time":1,"frames":[{"locals":[]}]})",
           R"({"time":1,"frames":[{"generator":7}]})",
           R"({"time":1,"frames":[{"line":"x"}]})",
           R"({"time":1,"frames":[{"matched_conditions":"a"}]})",
           R"({"time":1,"frames":[{"matched_conditions":[1]}]})",
           R"({"time":1,"watches":{}})",
           R"({"time":1,"watches":[3]})",
       }) {
    texts.push_back(
        std::string(R"({"version":2,"type":"event","event":"stop","payload":)") +
        payload + "}");
  }
  for (const auto& text : texts) {
    try {
      const auto message = parse_server_message_v2(text);
      if (message.kind == ServerMessageV2::Kind::Event &&
          message.event.event == "stop") {
        (void)stop_event_fields(message.event.payload);
      }
      FAIL() << "expected std::runtime_error for: " << text;
    } catch (const std::runtime_error&) {
    } catch (...) {
      FAIL() << "wrong exception type for: " << text;
    }
  }
}

TEST(Protocol, StopEventRoundTripWithFrames) {
  StopEvent event;
  event.time = 1024;
  Frame frame;
  frame.breakpoint_id = 3;
  frame.instance_id = 2;
  frame.instance_name = "Top.child";
  frame.filename = "gen.cc";
  frame.line = 21;
  frame.column = 4;
  insert_nested(frame.locals, "sum", common::Json("42"));
  insert_nested(frame.locals, "i", common::Json("1"));
  insert_nested(frame.generator, "io.out.bits", common::Json("7"));
  insert_nested(frame.generator, "io.out.valid", common::Json("1"));
  frame.matched_conditions = {"sum > 40", "i == 1"};
  event.frames.push_back(frame);

  // Through the wire text, as a client sees it.
  const std::string text = serialize_event_v2(
      EventV2{"stop", stop_event_payload(event)});
  const auto message = parse_server_message_v2(text);
  ASSERT_EQ(message.kind, ServerMessageV2::Kind::Event);
  EXPECT_EQ(message.event.event, "stop");
  const StopEvent parsed_event = stop_event_fields(message.event.payload);
  EXPECT_EQ(parsed_event.time, 1024u);
  ASSERT_EQ(parsed_event.frames.size(), 1u);
  const Frame& parsed = parsed_event.frames[0];
  EXPECT_EQ(parsed.breakpoint_id, 3);
  EXPECT_EQ(parsed.instance_id, 2);
  EXPECT_EQ(parsed.instance_name, "Top.child");
  EXPECT_EQ(parsed.filename, "gen.cc");
  EXPECT_EQ(parsed.line, 21u);
  EXPECT_EQ(parsed.column, 4u);
  EXPECT_EQ(parsed.locals.get_string("sum"), "42");
  // Bundle re-aggregation survives the wire format.
  const auto& out = parsed.generator.get("io")->get().get("out")->get();
  EXPECT_EQ(out.get_string("bits"), "7");
  EXPECT_EQ(out.get_string("valid"), "1");
  EXPECT_EQ(parsed.matched_conditions,
            (std::vector<std::string>{"sum > 40", "i == 1"}));
  EXPECT_TRUE(parsed_event.watch_hits.empty());
}

TEST(Protocol, InsertNestedBuildsBundleTree) {
  common::Json object = common::Json::object();
  insert_nested(object, "io.a.b", common::Json("1"));
  insert_nested(object, "io.a.c", common::Json("2"));
  insert_nested(object, "flat", common::Json("3"));
  EXPECT_EQ(object.dump(), R"({"flat":"3","io":{"a":{"b":"1","c":"2"}}})");
}

TEST(Protocol, InsertNestedOverwritesLeaf) {
  common::Json object = common::Json::object();
  insert_nested(object, "x.y", common::Json("1"));
  insert_nested(object, "x.y", common::Json("2"));
  EXPECT_EQ(object.get("x")->get().get_string("y"), "2");
}

TEST(Protocol, EmptyStopEventAllowed) {
  // Reverse execution bottoming out sends a frame-less stop.
  StopEvent event;
  event.time = 3;
  const StopEvent parsed = stop_event_fields(stop_event_payload(event));
  EXPECT_EQ(parsed.time, 3u);
  EXPECT_TRUE(parsed.frames.empty());
  EXPECT_TRUE(parsed.watch_hits.empty());
}

}  // namespace
}  // namespace hgdb::rpc
