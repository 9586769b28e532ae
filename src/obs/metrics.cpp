#include "rcr/obs/metrics.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rcr::obs {

std::atomic<bool> detail::g_metrics_on{false};

namespace {

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

// One registered metric cell.  Cells are immortal: once interned they are
// never freed or moved, so threads may cache raw pointers without any
// lifetime protocol (reset_metrics zeroes values in place).
struct Cell {
  Kind kind;
  std::string name;
  std::string label_key;
  std::string label_value;
  std::atomic<std::uint64_t> count{0};  // counter value / histogram count
  std::atomic<double> value{0.0};       // gauge value / histogram sum
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets + 1> buckets{};

  Cell(Kind k, const char* n, const char* lk, const char* lv)
      : kind(k),
        name(n),
        label_key(lk == nullptr ? "" : lk),
        label_value(lv == nullptr ? "" : lv) {}
};

constexpr int kShards = 16;

struct Shard {
  std::mutex mu;
  // Keyed by name '\x1f' label_key '\x1f' label_value so distinct label
  // values of one counter family intern distinct cells.
  std::map<std::string, std::unique_ptr<Cell>> cells;
};

struct Registry {
  Shard shards[kShards];
};

// Heap-allocated and deliberately leaked: the RCR_METRICS atexit exporter
// may run after static destructors, so the registry must never die.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

std::uint64_t fnv1a(const char* s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Resolve (intern on first touch) the cell for a metric.  Slow path only:
// takes the shard lock; may allocate the first time a key is seen.
Cell* intern(Kind kind, const char* name, const char* label_key,
             const char* label_value) {
  std::string key(name);
  key += '\x1f';
  if (label_key != nullptr) key += label_key;
  key += '\x1f';
  if (label_value != nullptr) key += label_value;

  Shard& shard = registry().shards[fnv1a(key.c_str()) % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.cells.find(key);
  if (it == shard.cells.end()) {
    it = shard.cells
             .emplace(std::move(key), std::make_unique<Cell>(
                                          kind, name, label_key, label_value))
             .first;
  }
  return it->second.get();
}

// Per-thread pointer cache so the steady-state armed path never locks.
// Keyed by the *identity* of the name/label pointers (call sites pass
// literals / registry strings with static storage), open-addressed, fixed
// size: a full cache degrades to the shard lookup, never to an allocation.
struct TlsCache {
  struct Entry {
    const char* name = nullptr;
    const char* label_value = nullptr;
    Cell* cell = nullptr;
  };
  static constexpr int kSlots = 256;  // power of two
  static constexpr int kProbes = 4;
  Entry entries[kSlots];

  static std::size_t slot_of(const char* name, const char* lv) {
    auto mix = reinterpret_cast<std::uintptr_t>(name) * 0x9e3779b97f4a7c15ull;
    mix ^= reinterpret_cast<std::uintptr_t>(lv) * 0xff51afd7ed558ccdull;
    return static_cast<std::size_t>((mix >> 17) & (kSlots - 1));
  }

  Cell* find(const char* name, const char* lv) {
    std::size_t s = slot_of(name, lv);
    for (int p = 0; p < kProbes; ++p) {
      const Entry& e = entries[(s + p) & (kSlots - 1)];
      if (e.name == name && e.label_value == lv) return e.cell;
      if (e.name == nullptr) return nullptr;
    }
    return nullptr;
  }

  void insert(const char* name, const char* lv, Cell* cell) {
    std::size_t s = slot_of(name, lv);
    for (int p = 0; p < kProbes; ++p) {
      Entry& e = entries[(s + p) & (kSlots - 1)];
      if (e.name == nullptr || (e.name == name && e.label_value == lv)) {
        e = {name, lv, cell};
        return;
      }
    }
    entries[s] = {name, lv, cell};  // evict; correctness is unaffected
  }
};

Cell* resolve(Kind kind, const char* name, const char* label_key,
              const char* label_value) {
  thread_local TlsCache cache;
  if (Cell* hit = cache.find(name, label_value)) return hit;
  Cell* cell = intern(kind, name, label_key, label_value);
  cache.insert(name, label_value, cell);
  return cell;
}

void atomic_add_double(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (cur < value && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

int bucket_index(double value) {
  // Buckets le = 2^0 .. 2^(kHistogramBuckets-1); anything above lands in
  // the overflow slot (index kHistogramBuckets).
  double le = 1.0;
  for (int i = 0; i < kHistogramBuckets; ++i, le *= 2.0)
    if (value <= le) return i;
  return kHistogramBuckets;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (c == '.' || c == '-') c = '_';
  return out;
}

std::string expand_pid(const std::string& path) {
  const std::size_t pos = path.find("%p");
  if (pos == std::string::npos) return path;
  std::string out = path;
  out.replace(pos, 2, std::to_string(static_cast<long>(::getpid())));
  return out;
}

}  // namespace

namespace detail {

void counter_add_slow(const char* name, const char* label_key,
                      const char* label_value, std::uint64_t delta) {
  Cell* cell = resolve(Kind::kCounter, name, label_key, label_value);
  cell->count.fetch_add(delta, std::memory_order_relaxed);
}

void gauge_set_slow(const char* name, double value) {
  Cell* cell = resolve(Kind::kGauge, name, nullptr, nullptr);
  cell->value.store(value, std::memory_order_relaxed);
}

void gauge_set_slow(const char* name, const char* label_key,
                    const char* label_value, double value) {
  Cell* cell = resolve(Kind::kGauge, name, label_key, label_value);
  cell->value.store(value, std::memory_order_relaxed);
}

void gauge_max_slow(const char* name, double value) {
  Cell* cell = resolve(Kind::kGauge, name, nullptr, nullptr);
  atomic_max_double(cell->value, value);
}

void histogram_observe_slow(const char* name, const char* label_key,
                            const char* label_value, double value) {
  Cell* cell = resolve(Kind::kHistogram, name, label_key, label_value);
  cell->count.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(cell->value, value);
  cell->buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

void set_metrics_enabled(bool on) {
  detail::g_metrics_on.store(on, std::memory_order_relaxed);
}

void reset_metrics() {
  Registry& reg = registry();
  for (Shard& shard : reg.shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [key, cell] : shard.cells) {
      cell->count.store(0, std::memory_order_relaxed);
      cell->value.store(0.0, std::memory_order_relaxed);
      for (auto& b : cell->buckets) b.store(0, std::memory_order_relaxed);
    }
  }
}

std::vector<MetricSample> metrics_snapshot() {
  std::vector<MetricSample> out;
  Registry& reg = registry();
  for (Shard& shard : reg.shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [key, cell] : shard.cells) {
      MetricSample s;
      s.name = cell->name;
      s.label_key = cell->label_key;
      s.label_value = cell->label_value;
      switch (cell->kind) {
        case Kind::kCounter:
          s.kind = "counter";
          s.value =
              static_cast<double>(cell->count.load(std::memory_order_relaxed));
          break;
        case Kind::kGauge:
          s.kind = "gauge";
          s.value = cell->value.load(std::memory_order_relaxed);
          break;
        case Kind::kHistogram:
          s.kind = "histogram";
          s.value = cell->value.load(std::memory_order_relaxed);
          s.count = cell->count.load(std::memory_order_relaxed);
          s.buckets.resize(kHistogramBuckets + 1);
          for (int i = 0; i <= kHistogramBuckets; ++i)
            s.buckets[static_cast<std::size_t>(i)] =
                cell->buckets[static_cast<std::size_t>(i)].load(
                    std::memory_order_relaxed);
          break;
      }
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              if (a.label_key != b.label_key) return a.label_key < b.label_key;
              return a.label_value < b.label_value;
            });
  return out;
}

std::string metrics_json() {
  const std::vector<MetricSample> snap = metrics_snapshot();
  std::string out = "{\n  \"version\": 1,\n  \"metrics\": [";
  bool first = true;
  for (const MetricSample& s : snap) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"";
    json_escape_into(out, s.name);
    out += "\", \"kind\": \"" + s.kind + "\"";
    if (!s.label_key.empty()) {
      out += ", \"labels\": {\"";
      json_escape_into(out, s.label_key);
      out += "\": \"";
      json_escape_into(out, s.label_value);
      out += "\"}";
    }
    if (s.kind == "counter") {
      out += ", \"value\": " +
             std::to_string(static_cast<std::uint64_t>(s.value));
    } else if (s.kind == "gauge") {
      out += ", \"value\": " + format_double(s.value);
    } else {
      out += ", \"count\": " + std::to_string(s.count);
      out += ", \"sum\": " + format_double(s.value);
      out += ", \"buckets\": [";
      for (std::size_t i = 0; i < s.buckets.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(s.buckets[i]);
      }
      out += "]";
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string metrics_prometheus() {
  const std::vector<MetricSample> snap = metrics_snapshot();
  std::string out;
  std::string last_family;
  for (const MetricSample& s : snap) {
    const std::string family = prom_name(s.name);
    if (family != last_family) {
      out += "# TYPE " + family + " " + s.kind + "\n";
      last_family = family;
    }
    // The label pair without braces, so a histogram can put `le` beside it.
    std::string pair;
    if (!s.label_key.empty()) {
      pair = s.label_key + "=\"";
      for (char c : s.label_value) {
        if (c == '"' || c == '\\') pair += '\\';
        pair += c;
      }
      pair += "\"";
    }
    const std::string labels = pair.empty() ? "" : "{" + pair + "}";
    const std::string le_prefix = pair.empty() ? "{" : "{" + pair + ",";
    if (s.kind == "counter") {
      out += family + labels + " " +
             std::to_string(static_cast<std::uint64_t>(s.value)) + "\n";
    } else if (s.kind == "gauge") {
      out += family + labels + " " + format_double(s.value) + "\n";
    } else {
      std::uint64_t cumulative = 0;
      double le = 1.0;
      for (int i = 0; i < kHistogramBuckets; ++i, le *= 2.0) {
        cumulative += s.buckets[static_cast<std::size_t>(i)];
        out += family + "_bucket" + le_prefix + "le=\"" +
               std::to_string(static_cast<std::uint64_t>(le)) + "\"} " +
               std::to_string(cumulative) + "\n";
      }
      cumulative += s.buckets[kHistogramBuckets];
      out += family + "_bucket" + le_prefix + "le=\"+Inf\"} " +
             std::to_string(cumulative) + "\n";
      out += family + "_sum" + labels + " " + format_double(s.value) + "\n";
      out += family + "_count" + labels + " " + std::to_string(s.count) +
             "\n";
    }
  }
  return out;
}

bool write_metrics(const std::string& path) {
  const std::string target = expand_pid(path);
  const bool prom = target.size() >= 5 &&
                    target.compare(target.size() - 5, 5, ".prom") == 0;
  const std::string body = prom ? metrics_prometheus() : metrics_json();
  std::FILE* f = std::fopen(target.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return written == body.size();
}

ScopedMetrics::ScopedMetrics() : was_on_(metrics_enabled()) {
  set_metrics_enabled(true);
  reset_metrics();
}

ScopedMetrics::~ScopedMetrics() { set_metrics_enabled(was_on_); }

namespace {

// Arms the registry before main() when RCR_METRICS is set and schedules the
// exit-time export.  Lives in this TU so it is always linked (every
// instrumented call references g_metrics_on).  The path string is leaked so
// the atexit handler can run after static destruction.
std::string* g_export_path = nullptr;

[[maybe_unused]] const bool g_env_armed = [] {
  const char* env = std::getenv("RCR_METRICS");
  if (env == nullptr || env[0] == '\0') return false;
  g_export_path = new std::string(env);
  set_metrics_enabled(true);
  std::atexit(+[] { write_metrics(*g_export_path); });
  return true;
}();

}  // namespace

}  // namespace rcr::obs
