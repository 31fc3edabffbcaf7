// Fuzz harness for the v2 JSON wire protocol, both directions:
//
//  - rpc::parse_request_v2, the first thing that touches untrusted session
//    input. Its contract is total: every input yields a DecodedRequestV2
//    (with an error code for garbage), never an exception or a crash.
//  - rpc::parse_server_message_v2 and, for a "stop" event, the payload
//    decoder rpc::stop_event_fields: what a client runs on runtime
//    output. Contract: decode successfully or throw std::runtime_error.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "rpc/protocol.h"
#include "rpc/protocol_v2.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const auto decoded = hgdb::rpc::parse_request_v2(text);
  (void)decoded;
  try {
    const auto message = hgdb::rpc::parse_server_message_v2(text);
    if (message.kind == hgdb::rpc::ServerMessageV2::Kind::Event &&
        message.event.event == "stop") {
      const auto stop = hgdb::rpc::stop_event_fields(message.event.payload);
      (void)stop;
    }
  } catch (const std::runtime_error&) {
    // malformed server message: the documented failure mode
  }
  return 0;
}

#ifndef HGDB_FUZZ_LIBFUZZER
#include "standalone_driver.h"
int main(int argc, char** argv) { return hgdb_fuzz_replay(argc, argv); }
#endif
