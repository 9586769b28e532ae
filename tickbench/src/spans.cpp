#include "spans.hpp"

#include <cstdio>
#include <cstring>

namespace tickbench {

SpanRecorder::SpanRecorder(std::size_t max_records)
    : max_records_(max_records) {
  stack_.reserve(16);
  layers_.reserve(64);
}

void SpanRecorder::begin(const char* name, std::uint64_t tick,
                         std::uint32_t cell) {
  std::int32_t index = -1;
  if (records_.size() < max_records_) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().record;
    index = static_cast<std::int32_t>(records_.size());
    records_.push_back(Record{name, tick, cell, parent, 0, 0});
  } else {
    ++dropped_;
  }
  // The clock is read last so the bookkeeping above is not billed to the
  // span.
  stack_.push_back(Frame{name, index, now_ns(), 0});
}

void SpanRecorder::end() {
  const std::int64_t stop = now_ns();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = stop - frame.start_ns;
  if (frame.record >= 0) {
    Record& r = records_[static_cast<std::size_t>(frame.record)];
    r.start_ns = frame.start_ns;
    r.end_ns = stop;
  }
  Layer& l = layer_slot(frame.name);
  ++l.calls;
  l.total_ns += static_cast<double>(duration);
  l.self_ns += static_cast<double>(duration - frame.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

SpanRecorder::Layer& SpanRecorder::layer_slot(const char* name) {
  // Names are string literals: pointer identity is the fast path, strcmp
  // catches a literal duplicated across translation units.
  for (Layer& l : layers_)
    if (l.name == name || std::strcmp(l.name, name) == 0) return l;
  layers_.push_back(Layer{name, 0, 0.0, 0.0});
  return layers_.back();
}

SpanRecorder::Layer SpanRecorder::layer(const char* name) const {
  for (const Layer& l : layers_)
    if (std::strcmp(l.name, name) == 0) return l;
  return Layer{name, 0, 0.0, 0.0};
}

double SpanRecorder::self_ns_per_call(const char* name) const {
  const Layer l = layer(name);
  return l.calls == 0 ? 0.0 : l.self_ns / static_cast<double>(l.calls);
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  std::fprintf(f, "{\"dropped\": %llu, \"spans\": [\n",
               static_cast<unsigned long long>(dropped_));
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.cell == kTickLevel)
      std::fprintf(f, "%s{\"name\": \"%s\", \"tick\": %llu, \"cell\": null",
                   i == 0 ? "" : ",\n", r.name,
                   static_cast<unsigned long long>(r.tick));
    else
      std::fprintf(f, "%s{\"name\": \"%s\", \"tick\": %llu, \"cell\": %u",
                   i == 0 ? "" : ",\n", r.name,
                   static_cast<unsigned long long>(r.tick), r.cell);
    std::fprintf(f, ", \"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld}",
                 r.parent, static_cast<long long>(r.start_ns - origin),
                 static_cast<long long>(r.end_ns - origin));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace tickbench
