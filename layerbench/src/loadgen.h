// Open-loop load generator: one thread, a few pipelined connections, one
// poll loop.
//
// Operation i of a run is due at start + i / rate, whatever happened to the
// operations before it (independent users, so an open loop).  Latency is
// measured from the due time, so a stall also charges the wait it imposes on
// every later operation; how late the generator itself sent each request is
// recorded separately.  Requests are spread round-robin over the
// connections and pipelined: many may be in flight on one connection.
// Update operations are the exception: they are sent one at a time, in
// order, so the server assigns insert ids in timeline order, and an update
// the server refused (kRetryAfter, or its deadline expired before it ran)
// is sent again until it is applied; each refusal counts as a failed
// attempt.

#ifndef LAYERBENCH_LOADGEN_H_
#define LAYERBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "service/protocol.h"
#include "tracer.h"

namespace layerbench {

/// Deadline stamped on every generated request frame.
inline constexpr uint32_t kRequestDeadlineMs = 2000;

enum class OpKind { kQuery, kUpdate };

enum class Verdict { kOk, kMismatch, kDecode };

/// The workload side of a run: what operation i sends and how its answer
/// is checked.
class OpSource {
 public:
  virtual ~OpSource() = default;
  virtual OpKind kind(size_t op) const = 0;
  /// Appends op's complete request frame (header included) to *out.
  virtual void Encode(size_t op, uint64_t request_id,
                      std::vector<uint8_t>* out) = 0;
  /// Decodes op's terminal response payload (a success frame type).
  virtual Verdict Parse(size_t op, const simjoin::Frame& frame) = 0;
  /// Checks the response Parse just decoded against the oracle.
  virtual Verdict Verify(size_t op) = 0;
  /// Called when update op failed for good (not refused and resent): the
  /// server may or may not have applied it.
  virtual void Lost(size_t /*op*/) {}
};

/// What one Run measured.
struct LoadResult {
  /// One sample per attempt; a failed attempt counts as kMissedUs.
  std::vector<double> latency_us;
  std::vector<double> update_latency_us;  ///< update ops only
  std::vector<double> late_us;            ///< send time minus due time
  uint64_t attempted = 0;  ///< ops, plus every resend of a refused update
  uint64_t completed = 0;  ///< answered and correct
  uint64_t resent = 0;     ///< refused updates sent again
  Failures failures;
  double elapsed_s = 0.0;  ///< first due time to last answer

  void Merge(const LoadResult& o);
};

class LoadGen {
 public:
  static simjoin::Result<std::unique_ptr<LoadGen>> Connect(uint16_t port,
                                                           size_t conns);
  ~LoadGen();

  /// Runs ops [begin, end) of src at `rate` ops/s and returns once every op
  /// is answered (or given up on).  With a tracer, every 4th query's encode
  /// and parse are recorded as protocol.encode_ns / protocol.parse_ns
  /// spans.
  simjoin::Status Run(OpSource* src, size_t begin, size_t end, double rate,
                      Tracer* tracer, LoadResult* out);

  /// Sends one request frame on the first connection and waits for its
  /// terminal response.  Only valid while no Run is in progress.
  simjoin::Result<simjoin::Frame> Call(std::vector<uint8_t> frame,
                                       uint64_t request_id);

  /// Request ids for Call; disjoint from Run's (op + 1).
  uint64_t NextCallId() { return next_call_id_++; }

 private:
  struct Conn;
  LoadGen() = default;

  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t next_call_id_ = 1ull << 62;
};

}  // namespace layerbench

#endif  // LAYERBENCH_LOADGEN_H_
