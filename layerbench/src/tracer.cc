#include "tracer.h"

#include <cstdio>
#include <fstream>

namespace layerbench {

Tracer::Span::Span(Tracer* tracer, const char* name, uint64_t ops,
                   uint64_t request)
    : tracer_(tracer), name_(name), ops_(ops), request_(request) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id_++;
  parent_ = tracer_->open_.empty() ? 0 : tracer_->open_.back();
  tracer_->open_.push_back(id_);
  start_ns_ = tracer_->NowNs();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const int64_t end_ns = tracer_->NowNs();
  tracer_->open_.pop_back();
  Event e;
  e.name = name_;
  e.id = id_;
  e.parent = parent_;
  e.request = request_;
  e.start_ns = start_ns_;
  e.dur_ns = end_ns - start_ns_;
  e.ops = ops_;
  tracer_->events_.push_back(std::move(e));
}

Tracer::Tracer() : epoch_(Clock::now()) { events_.reserve(1 << 16); }

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::Push(Event event) {
  event.id = next_id_++;
  event.parent = open_.empty() ? 0 : open_.back();
  events_.push_back(std::move(event));
}

void Tracer::Complete(const char* name, int64_t start_ns, uint64_t ops,
                      uint64_t request) {
  Event e;
  e.name = name;
  e.request = request;
  e.start_ns = start_ns;
  e.dur_ns = NowNs() - start_ns;
  e.ops = ops;
  Push(std::move(e));
}

void Tracer::Value(const std::string& name, double value, int64_t start_ns) {
  Event e;
  e.name = name;
  e.start_ns = start_ns;
  e.dur_ns = NowNs() - start_ns;
  e.has_value = true;
  e.value = value;
  Push(std::move(e));
}

void Tracer::BeginSection(const std::string& workload) {
  sections_.emplace_back(events_.size(), workload);
}

double Tracer::MedianPerOp(const std::string& name, double scale) const {
  const size_t begin = sections_.empty() ? 0 : sections_.back().first;
  std::vector<double> per_op;
  for (size_t i = begin; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (e.name != name || e.has_value || e.ops == 0) continue;
    per_op.push_back(static_cast<double>(e.dur_ns) /
                     static_cast<double>(e.ops) * scale);
  }
  return Median(std::move(per_op));
}

simjoin::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return simjoin::Status::IoError("cannot write " + path);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  bool first = true;
  auto sep = [&]() {
    if (!first) out << ",\n";
    first = false;
  };
  for (size_t s = 0; s < sections_.size(); ++s) {
    sep();
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << s + 1
        << ", \"tid\": 1, \"args\": {\"name\": "
        << JsonString(sections_[s].second) << "}}";
  }
  size_t section = 0;
  for (size_t i = 0; i < events_.size(); ++i) {
    while (section + 1 < sections_.size() &&
           sections_[section + 1].first <= i) {
      ++section;
    }
    const Event& e = events_[i];
    char ts[64];
    std::snprintf(ts, sizeof(ts), "\"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(e.start_ns) * 1e-3,
                  static_cast<double>(e.dur_ns) * 1e-3);
    sep();
    out << "{\"name\": " << JsonString(e.name)
        << ", \"cat\": \"layerbench\", \"ph\": \"X\", " << ts
        << ", \"pid\": " << section + 1 << ", \"tid\": 1, \"args\": {\"id\": "
        << e.id << ", \"parent\": " << e.parent << ", \"ops\": " << e.ops;
    if (e.request != 0) out << ", \"request\": " << e.request;
    if (e.has_value) out << ", \"value\": " << JsonNumber(e.value);
    out << "}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) return simjoin::Status::IoError("short write to " + path);
  return simjoin::Status::OK();
}

}  // namespace layerbench
