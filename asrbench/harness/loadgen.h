// The benchmark's own load generator: open loop, one thread, a fixed set
// of keep-alive connections to asrankd on loopback.
//
// Requests are sent when they are due, whatever the state of earlier
// requests (several may be in flight on one connection; asrankd answers a
// connection's requests in order).  Latency runs from the due time, so a
// stall in the server or in the generator shows in every request queued
// behind it, and the generator's own lateness (sent - due) is reported so
// a generator-bound run can be told from a server-bound one.  A fixed share
// of connections closes and redials after a few requests, so accept and
// admission stay on the measured path.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace asrbench {

/// The bytes of one request: a binary frame, or a text line with '\n'.
struct Wire {
  std::string bytes;
  bool text = false;
};

/// An open-loop schedule.  Only the due times are held for the whole run;
/// each request's bytes are made when it is sent, so the generator's
/// memory stays small beside the server's.
struct Schedule {
  std::vector<std::int64_t> due_ns;  ///< offsets from the start, ascending
  /// The next request's bytes; called once per request, in schedule order.
  std::function<Wire()> next_wire;
  /// Request ids in the trace are first_id + index.
  std::uint64_t first_id = 1;
};

struct LoadResult {
  /// One per scheduled request; times are absolute now_ns() values.
  std::vector<RequestRecord> records;
  /// Digest of each reply (binary: the frame payload; text: the line
  /// without '\n'); valid where records[i].done_ns >= 0.
  std::vector<std::uint64_t> reply_digest;
  /// Reply status was OK (binary status byte 0, text line "OK ...").
  std::vector<bool> reply_ok;
  std::vector<double> connect_us;  ///< dial -> first reply, redialled connections
  std::uint64_t dropped_connections = 0;  ///< closed by the server or refused
  /// Bytes the generator holds through the whole load: the due times and
  /// the per-request arrays above.  The serving workloads take them out of
  /// peak_rss_mb, which is then the server's (and the process's) own.
  std::size_t held_bytes = 0;
  std::int64_t start_ns = 0;  ///< absolute time of schedule offset 0
  double wall_s = 0;
  double cpu_s = 0;  ///< generator thread CPU
};

/// Run `schedule` against 127.0.0.1:`port` over 16
/// connections; every 4th one redials after 8 requests, and replies are
/// awaited for 1 s after the last request was due.  With an enabled
/// tracer, one span per answered request ("loadgen.request", request id =
/// schedule.first_id + index).
[[nodiscard]] LoadResult run_load(const Schedule& schedule, std::uint16_t port, Tracer& tracer);

}  // namespace asrbench
