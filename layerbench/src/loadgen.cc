#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <deque>

#include "common/net.h"

namespace layerbench {

using simjoin::Frame;
using simjoin::FrameType;
using simjoin::Status;

namespace {

/// How long a run waits for stragglers after the last op was due.
constexpr int64_t kDrainNs = 5'000'000'000;
/// Every kTraceEvery-th query records its codec spans in a traced run.
constexpr size_t kTraceEvery = 4;
/// How long a refused update waits before it is sent again.
constexpr int64_t kResendNs = 1'000'000;

}  // namespace

struct LoadGen::Conn {
  simjoin::TcpSocket sock;
  simjoin::FrameDecoder decoder;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  bool dead = false;

  bool want_write() const { return !dead && out_off < out.size(); }

  /// Writes as much of the outbound buffer as the socket takes.
  Status Flush() {
    while (out_off < out.size()) {
      size_t sent = 0;
      SIMJOIN_RETURN_NOT_OK(
          sock.SendSome(out.data() + out_off, out.size() - out_off, &sent));
      if (sent == 0) break;
      out_off += sent;
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
    return Status::OK();
  }

  /// Drains the socket into the decoder; false once the peer is gone.
  bool Fill() {
    uint8_t buf[64 << 10];
    while (true) {
      size_t n = 0;
      bool eof = false;
      if (!sock.RecvSome(buf, sizeof(buf), &n, &eof).ok()) return false;
      if (n > 0) decoder.Append(buf, n);
      if (eof) return false;
      if (n < sizeof(buf)) return true;
    }
  }
};

void LoadResult::Merge(const LoadResult& o) {
  latency_us.insert(latency_us.end(), o.latency_us.begin(),
                    o.latency_us.end());
  update_latency_us.insert(update_latency_us.end(),
                           o.update_latency_us.begin(),
                           o.update_latency_us.end());
  late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
  attempted += o.attempted;
  completed += o.completed;
  resent += o.resent;
  failures.Merge(o.failures);
  elapsed_s += o.elapsed_s;
}

simjoin::Result<std::unique_ptr<LoadGen>> LoadGen::Connect(uint16_t port,
                                                           size_t conns) {
  // Wake from ppoll within microseconds of a due time, not the default
  // 50 µs timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::unique_ptr<LoadGen> gen(new LoadGen());
  for (size_t c = 0; c < std::max<size_t>(1, conns); ++c) {
    auto conn = std::make_unique<Conn>();
    SIMJOIN_ASSIGN_OR_RETURN(conn->sock,
                             simjoin::TcpSocket::Connect("127.0.0.1", port));
    SIMJOIN_RETURN_NOT_OK(conn->sock.SetNonBlocking(true));
    SIMJOIN_RETURN_NOT_OK(conn->sock.SetNoDelay(true));
    gen->conns_.push_back(std::move(conn));
  }
  return gen;
}

LoadGen::~LoadGen() = default;

Status LoadGen::Run(OpSource* src, size_t begin, size_t end, double rate,
                    Tracer* tracer, LoadResult* out) {
  struct OpState {
    int64_t due_ns = 0;
    size_t conn = 0;
    bool sent = false;
    bool done = false;
  };
  const size_t total = end - begin;
  std::vector<OpState> ops(total);
  const Clock::time_point t0 = Clock::now();
  auto now_ns = [&]() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0)
        .count();
  };
  for (size_t i = 0; i < total; ++i) {
    ops[i].due_ns = static_cast<int64_t>(static_cast<double>(i) / rate * 1e9);
  }
  const int64_t last_due = total == 0 ? 0 : ops[total - 1].due_ns;

  LoadResult res;
  res.attempted = total;
  res.latency_us.assign(total, kMissedUs);
  res.late_us.reserve(total);
  size_t next = 0;       // next op (relative) to become due
  size_t finished = 0;   // ops answered or given up on
  size_t rr = 0;         // round-robin connection cursor
  std::deque<size_t> serial_queue;
  bool serial_inflight = false;
  int64_t resend_at_ns = 0;  // a refused update waits until then
  int64_t last_answer_ns = 0;

  auto finish = [&](size_t i, bool ok, int64_t at_ns) {
    OpState& op = ops[i];
    op.done = true;
    ++finished;
    last_answer_ns = std::max(last_answer_ns, at_ns);
    const double lat =
        ok ? static_cast<double>(at_ns - op.due_ns) * 1e-3 : kMissedUs;
    res.latency_us[i] = lat;
    if (src->kind(begin + i) == OpKind::kUpdate) {
      res.update_latency_us.push_back(lat);
      serial_inflight = false;
      if (!ok) src->Lost(begin + i);
    }
    if (ok) ++res.completed;
  };

  // A refused update is a failed attempt; the op itself goes back to the
  // head of the serial queue, so later updates still follow it.
  auto resend = [&](size_t i, int64_t at_ns) {
    ++res.attempted;
    ++res.resent;
    res.latency_us.push_back(kMissedUs);
    res.update_latency_us.push_back(kMissedUs);
    ops[i].sent = false;
    serial_inflight = false;
    serial_queue.push_front(i);
    resend_at_ns = at_ns + kResendNs;
  };

  // Next live connection, round-robin; conns_.size() when none is left.
  auto live_conn = [&]() -> size_t {
    for (size_t k = 0; k < conns_.size(); ++k) {
      const size_t c = (rr + k) % conns_.size();
      if (!conns_[c]->dead) {
        rr = c + 1;
        return c;
      }
    }
    return conns_.size();
  };

  auto kill_conn = [&](size_t c) {
    conns_[c]->dead = true;
    const int64_t at = now_ns();
    for (size_t i = 0; i < total; ++i) {
      if (ops[i].sent && !ops[i].done && ops[i].conn == c) {
        ++res.failures.disconnect;
        finish(i, false, at);
      }
    }
  };

  auto issue = [&](size_t i) {
    const size_t op_index = begin + i;
    const size_t c = live_conn();
    const int64_t at = now_ns();
    if (c == conns_.size()) {
      ++res.failures.disconnect;
      finish(i, false, at);
      return;
    }
    Conn* conn = conns_[c].get();
    ops[i].conn = c;
    ops[i].sent = true;
    const bool query = src->kind(op_index) == OpKind::kQuery;
    // Updates wait for the previous update by design; only queries show
    // how late the generator itself ran.
    if (query) {
      res.late_us.push_back(static_cast<double>(at - ops[i].due_ns) * 1e-3);
    }
    const bool traced =
        tracer != nullptr && query && op_index % kTraceEvery == 0;
    const int64_t span_start = traced ? tracer->NowNs() : 0;
    src->Encode(op_index, op_index + 1, &conn->out);
    if (traced) {
      tracer->Complete("protocol.encode_ns", span_start, 1, op_index + 1);
    }
    if (!conn->Flush().ok()) kill_conn(c);
  };

  std::vector<pollfd> fds(conns_.size());
  while (finished < total) {
    int64_t now = now_ns();
    while (next < total && ops[next].due_ns <= now) {
      if (src->kind(begin + next) == OpKind::kUpdate) {
        serial_queue.push_back(next);
      } else {
        issue(next);
      }
      ++next;
    }
    if (!serial_inflight && !serial_queue.empty() && now >= resend_at_ns) {
      serial_inflight = true;
      const size_t i = serial_queue.front();
      serial_queue.pop_front();
      issue(i);
    }
    if (next == total && now > last_due + kDrainNs) {
      for (size_t i = 0; i < total; ++i) {
        if (!ops[i].done) {
          ++res.failures.disconnect;
          finish(i, false, now);
        }
      }
      break;
    }

    for (size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c]->dead ? -1 : conns_[c]->sock.fd();
      fds[c].events = static_cast<short>(
          POLLIN | (conns_[c]->want_write() ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    int64_t wait_ns = 1'000'000;
    if (next < total) {
      wait_ns = std::clamp<int64_t>(ops[next].due_ns - now, 0, wait_ns);
    }
    if (!serial_inflight && !serial_queue.empty()) {
      wait_ns = std::clamp<int64_t>(resend_at_ns - now, 0, wait_ns);
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);

    for (size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = *conns_[c];
      if (conn.dead || fds[c].revents == 0) continue;
      if ((fds[c].revents & POLLOUT) != 0 && !conn.Flush().ok()) {
        kill_conn(c);
        continue;
      }
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      const bool alive = conn.Fill();
      while (true) {
        const int64_t parse_start = tracer != nullptr ? tracer->NowNs() : 0;
        Frame frame;
        bool got = false;
        if (!conn.decoder.Next(&frame, &got).ok()) {
          ++res.failures.decode;  // stream corrupt: the rest is lost
          kill_conn(c);
          break;
        }
        if (!got) break;
        const uint64_t rid = frame.header.request_id;
        if (rid <= begin || rid > end || ops[rid - 1 - begin].done) {
          ++res.failures.decode;  // an answer to nothing outstanding
          continue;
        }
        const size_t i = rid - 1 - begin;
        const size_t op_index = begin + i;
        const int64_t at = now_ns();
        const bool update = src->kind(op_index) == OpKind::kUpdate;
        if (frame.header.type == FrameType::kRetryAfter) {
          ++res.failures.retry_after;
          if (update) {
            resend(i, at);
          } else {
            finish(i, false, at);
          }
          continue;
        }
        if (frame.header.type == FrameType::kError) {
          Status status;
          if (!simjoin::ParseErrorResponse(frame.payload, &status).ok()) {
            ++res.failures.decode;
          } else if (status.code() ==
                     simjoin::StatusCode::kDeadlineExceeded) {
            // The server checks the deadline before it runs the request,
            // so an expired update was not applied.
            ++res.failures.deadline;
            if (update) {
              resend(i, at);
              continue;
            }
          } else {
            ++res.failures.error;
          }
          finish(i, false, at);
          continue;
        }
        Verdict verdict = src->Parse(op_index, frame);
        if (tracer != nullptr && !update && op_index % kTraceEvery == 0) {
          tracer->Complete("protocol.parse_ns", parse_start, 1, rid);
        }
        if (verdict == Verdict::kOk) verdict = src->Verify(op_index);
        if (verdict == Verdict::kDecode) ++res.failures.decode;
        if (verdict == Verdict::kMismatch) ++res.failures.mismatch;
        finish(i, verdict == Verdict::kOk, at);
      }
      if (!alive) kill_conn(c);
    }
  }
  res.elapsed_s = static_cast<double>(std::max(last_answer_ns, last_due)) * 1e-9;
  out->Merge(res);
  return Status::OK();
}

simjoin::Result<Frame> LoadGen::Call(std::vector<uint8_t> frame,
                                     uint64_t request_id) {
  Conn* conn = nullptr;
  for (auto& c : conns_) {
    if (!c->dead) {
      conn = c.get();
      break;
    }
  }
  if (conn == nullptr) return Status::Unavailable("every connection is down");
  conn->out.insert(conn->out.end(), frame.begin(), frame.end());
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 30.0) {
    SIMJOIN_RETURN_NOT_OK(conn->Flush());
    pollfd fd{conn->sock.fd(),
              static_cast<short>(POLLIN | (conn->want_write() ? POLLOUT : 0)),
              0};
    ::poll(&fd, 1, 100);
    if ((fd.revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    const bool alive = conn->Fill();
    while (true) {
      Frame got_frame;
      bool got = false;
      SIMJOIN_RETURN_NOT_OK(conn->decoder.Next(&got_frame, &got));
      if (!got) break;
      if (got_frame.header.request_id == request_id) return got_frame;
    }
    if (!alive) {
      conn->dead = true;
      return Status::Unavailable("connection closed during a call");
    }
  }
  return Status::DeadlineExceeded("no answer within 30 s");
}

}  // namespace layerbench
