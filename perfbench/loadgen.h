// Client side of the pipeline benchmark: loopback TCP sessions that speak
// the one-JSON-object-per-line protocol the serving tier exposes.
//
// Three shapes, one per serve-stage phase:
//   * open loop  — line i is due at start + i / rate, whatever the server
//     does; each line's latency is timed from when it was DUE, so a stall
//     also charges the lines queued behind it, and the generator's own
//     lateness (send time minus due time) is recorded separately;
//   * pipelined  — a closed loop with a fixed window of lines in flight,
//     which prices throughput without overrunning admission queues;
//   * round trip — one line, wait for its answer (the update writer).
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// A request script: newline-terminated protocol lines plus the offset of
/// each line's first byte.
struct Script {
  std::string text;
  std::vector<std::size_t> starts;

  void Add(const std::string& line);
  std::size_t size() const { return starts.size(); }
};

struct SessionResult {
  std::string transcript;               // every response line, in order
  std::vector<std::int64_t> latency_ns;  // open loop: answer time - due time
  std::vector<std::int64_t> late_ns;     // open loop: send time - due time
  double wall_seconds = 0.0;             // first send to last answer
  bool ok = true;                        // false: connection failed early
};

/// Replays `script` at `rate` lines/s starting at `start`.
SessionResult RunOpenLoop(int port, const Script& script, double rate,
                          Clock::time_point start);

/// Replays `script` keeping at most `window` lines unanswered.
SessionResult RunPipelined(int port, const Script& script,
                           std::int64_t window);

/// One blocking connection for request/answer round trips.
class RoundTripClient {
 public:
  explicit RoundTripClient(int port);
  ~RoundTripClient();
  RoundTripClient(const RoundTripClient&) = delete;
  RoundTripClient& operator=(const RoundTripClient&) = delete;

  /// Sends `line` (no newline) and returns its answer line (no newline);
  /// empty when the connection failed.
  std::string Call(const std::string& line);

 private:
  int fd_ = -1;
  std::string carry_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
