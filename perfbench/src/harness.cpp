#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "support/stats.hpp"

namespace perfbench {

double now_seconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- tracer ----------------------------------------------------------------

int Tracer::open(std::string_view name) {
  if (!enabled_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({std::string(name), now_seconds(), 0.0, 0.0, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index, double cpu_s) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s = now_seconds();
  spans_[static_cast<std::size_t>(index)].cpu_s = cpu_s;
  // Spans close in scope order, so the closing span is the innermost.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double Tracer::total_seconds(std::string_view name) const {
  double total = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) total += s.cpu_s;
  }
  return total;
}

double Tracer::total_seconds_prefix(std::string_view prefix) const {
  double total = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.name.starts_with(prefix)) total += s.cpu_s;
  }
  return total;
}

std::map<std::string, double> Tracer::layer_self_seconds() const {
  // Only spans inside a measured pass count, so per-pass self times add up
  // to the pass wall time. Parents precede children in spans_.
  std::vector<char> in_pass(spans_.size(), 0);
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    in_pass[i] = s.name == "bench.pass" ||
                 (s.parent >= 0 && in_pass[static_cast<std::size_t>(s.parent)]);
    self[i] += s.cpu_s;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.cpu_s;
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!in_pass[i]) continue;
    const std::string& name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return by_layer;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  out << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << s.name.substr(0, s.name.find('.'))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_s * 1e6
        << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"cpu_us\":" << s.cpu_s * 1e6
        << ",\"workload\":\"" << workload_ << "\"}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

double Span::stop() {
  if (cpu_ < 0.0) {
    cpu_ = clock_.cpu();
    wall_ = clock_.wall();
    tracer_.close(index_, cpu_);
  }
  return cpu_;
}

// --- statistics ------------------------------------------------------------

double median(const std::vector<double>& values) {
  return values.empty() ? 0.0 : speckle::support::percentile(values, 50.0);
}

namespace {

/// 1-based nearest rank of quantile q among n samples.
std::size_t nearest_rank(double q, std::size_t n) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(q, values.size()) - 1];
}

Tail tail_of(const std::vector<double>& samples) {
  Tail tail;
  if (samples.empty()) return tail;
  // Fewer than eleven samples leave no percentile with ten beyond it; the
  // maximum is the tail then.
  const std::size_t n = samples.size();
  const double q = n >= 11 ? 1.0 - 10.0 / static_cast<double>(n) : 1.0;
  tail.percentile = q * 100.0;
  tail.value = quantile(samples, q);
  tail.samples = n;
  tail.beyond = n - nearest_rank(q, n);
  return tail;
}

bool proper_coloring(const speckle::graph::CsrGraph& g,
                     const speckle::coloring::Coloring& colors) {
  if (colors.size() != g.num_vertices()) return false;
  for (speckle::graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    if (colors[v] == speckle::coloring::kUncolored) return false;
    for (speckle::graph::vid_t w : g.neighbors(v)) {
      if (colors[v] == colors[w]) return false;
    }
  }
  return true;
}

// --- digest ----------------------------------------------------------------

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  auto mix = [this](std::uint64_t word) {
    state_ ^= word;
    state_ *= 0xff51afd7ed558ccdULL;
    state_ ^= state_ >> 32;
  };
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    mix(word);
  }
  std::uint64_t tail = 0;
  if (size > i) std::memcpy(&tail, p + i, size - i);
  mix(tail ^ (static_cast<std::uint64_t>(size - i) << 56));
}

void Digest::add_report(const speckle::simt::DeviceReport& report,
                        bool with_timeline) {
  add<std::uint64_t>(report.kernels.size());
  for (const speckle::simt::KernelStats& k : report.kernels) {
    add(std::string_view(k.name));
    add(k.grid_blocks);
    add(k.block_threads);
    add(k.cycles);
    add(k.warp_insts);
    add(k.gld_transactions);
    add(k.gst_transactions);
    add(k.ro_hits);
    add(k.ro_misses);
    add(k.l2_hits);
    add(k.l2_misses);
    add(k.dram_bytes);
    add(k.atomics);
    add(k.stalls.cycles);
    add(k.stalls.busy);
    add(k.stalls.total);
  }
  for (const auto* t : {&report.h2d, &report.d2h, &report.d2d}) {
    add(t->bytes);
    add(t->cycles);
    add(t->count);
  }
  if (with_timeline) add(report.total_cycles);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

// --- outcome, context, passes ----------------------------------------------

bool Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
  return ok;
}

std::uint64_t RunContext::derive_seed(std::uint64_t stream) const {
  // splitmix64 of (seed, stream); never 0, which the generators reject.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return (z >> 20) | 1;
}

double host_scale() {
  // Four threads hash in registers (no memory traffic), so the reference
  // sees the clock and SMT-sibling share the passes get; the fastest of
  // three runs is the measurement.
  constexpr std::uint64_t kSteps = 1ULL << 24;
  constexpr unsigned kThreads = 4;
  // About what the reference takes on the 4-vCPU host this benchmark was
  // tuned on, so scaled times read close to raw CPU seconds.
  constexpr double kNominalCpuSeconds = 0.17;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t sink[kThreads] = {};
    const Stopwatch clock;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&sink, t] {
        std::uint64_t z = t + 1;
        for (std::uint64_t k = 0; k < kSteps; ++k) {
          z = (z ^ (z >> 31)) * 0x9e3779b97f4a7c15ULL + k;
        }
        sink[t] = z;
      });
    }
    for (std::thread& th : threads) th.join();
    best = std::min(best, clock.cpu());
    if (sink[0] == 0) std::cout << "";  // keep the loops observable
  }
  return kNominalCpuSeconds / best;
}

PassTimes run_passes(RunContext& ctx, const std::function<double()>& pass) {
  PassTimes times;
  const double start = now_seconds();
  bool traced = false;
  do {
    if (!traced) times.untraced_scale.push_back(host_scale());
    ctx.tracer->set_enabled(traced);
    Span span(*ctx.tracer, "bench.pass");
    const double seconds = pass();
    span.stop();
    (traced ? times.traced : times.untraced).push_back(seconds);
    if (!traced) times.untraced_wall.push_back(span.wall());
    if (ctx.trace) traced = !traced;
  } while (now_seconds() - start < ctx.seconds ||
           (ctx.trace && times.traced.empty()));
  ctx.tracer->set_enabled(false);
  std::cout << "pass CPU seconds:" << std::fixed << std::setprecision(3);
  for (double s : times.untraced) std::cout << " " << s;
  for (double s : times.traced) std::cout << " " << s << "(traced)";
  std::cout << "; wall seconds of untraced passes:";
  for (double s : times.untraced_wall) std::cout << " " << s;
  std::cout << "; host scale:";
  for (double s : times.untraced_scale) std::cout << " " << s;
  std::cout << std::defaultfloat << "\n";
  return times;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

namespace {

const char* const kStallKeys[] = {"memory_dependency", "execution_dependency",
                                  "synchronization",   "memory_throttle",
                                  "atomic",            "idle"};
static_assert(std::size(kStallKeys) ==
              static_cast<std::size_t>(speckle::simt::Stall::kCount));

/// Every per-layer metric with its unit, in BENCHMARK.json order (the
/// per-layer self times and trace.overhead_s follow them).
std::vector<std::pair<std::string, std::string>> layer_metric_names() {
  std::vector<std::pair<std::string, std::string>> names = {
      {"graph.suite_gen_s", "s"},        {"graph.gen_shards_s", "s"},
      {"graph.build_csr_s", "s"},        {"graph.cache_store_s", "s"},
      {"graph.cache_load_s", "s"},       {"graph.edges", "count"},
      {"graph.apply_mutations_s", "s"},  {"graph.partition_s", "s"},
      {"coloring.recolor_s", "s"},       {"coloring.recolor_dirty", "count"},
      {"coloring.iterations", "count"},
  };
  for (const char* s : kGpuSchemes) {
    names.push_back({std::string("coloring.") + s + ".host_s", "s"});
  }
  for (const char* s : kGpuSchemes) {
    names.push_back({std::string("coloring.") + s + ".sim_ms", "sim-ms"});
  }
  const std::pair<const char*, const char*> rest[] = {
      {"cpumodel.seq_host_s", "s"},      {"multidev.host_s", "s"},
      {"multidev.d2d_bytes", "bytes"},   {"multidev.exchanged_colors", "count"},
      {"multidev.hidden_ms", "sim-ms"},  {"multidev.stall_ms", "sim-ms"},
      {"simt.thread_scaling", "x"},      {"simt.launches", "count"},
      {"simt.warp_insts", "count"},      {"simt.host_ns_per_winst", "ns"},
      {"simt.ro_hit_ratio", "ratio"},    {"simt.l2_hit_ratio", "ratio"},
      {"simt.dram_bytes", "bytes"},      {"simt.atomics", "count"},
      {"simt.h2d_bytes", "bytes"},
  };
  for (const auto& [name, unit] : rest) names.push_back({name, unit});
  for (const char* key : kStallKeys) {
    names.push_back({std::string("simt.stall.") + key + "_frac", "ratio"});
  }
  names.push_back({"serve.incremental_ratio", "ratio"});
  for (const char* op : {"load", "color", "query", "mutate", "stats"}) {
    names.push_back({std::string("serve.") + op + ".host_us", "us"});
  }
  names.push_back({"serve.decode_us", "us"});
  names.push_back({"serve.encode_us", "us"});
  return names;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void add_simt_counters(LayerValues& values,
                       const speckle::simt::DeviceReport& report) {
  values["simt.launches"] += static_cast<double>(report.kernels.size());
  for (const speckle::simt::KernelStats& k : report.kernels) {
    values["simt.warp_insts"] += static_cast<double>(k.warp_insts);
    values["simt.ro_hits"] += static_cast<double>(k.ro_hits);
    values["simt.ro_misses"] += static_cast<double>(k.ro_misses);
    values["simt.l2_hits"] += static_cast<double>(k.l2_hits);
    values["simt.l2_misses"] += static_cast<double>(k.l2_misses);
    values["simt.dram_bytes"] += static_cast<double>(k.dram_bytes);
    values["simt.atomics"] += static_cast<double>(k.atomics);
  }
  values["simt.h2d_bytes"] += static_cast<double>(report.h2d.bytes);
  const speckle::simt::StallBreakdown stalls = report.aggregate_stalls();
  for (std::size_t s = 0; s < std::size(kStallKeys); ++s) {
    values[std::string("simt.stall.") + kStallKeys[s]] += stalls.cycles[s];
  }
  values["simt.stall_total"] += stalls.total;
}

void finish_simt_ratios(LayerValues& values, double gpu_host_s) {
  values["simt.ro_hit_ratio"] =
      ratio(values["simt.ro_hits"],
            values["simt.ro_hits"] + values["simt.ro_misses"]);
  values["simt.l2_hit_ratio"] =
      ratio(values["simt.l2_hits"],
            values["simt.l2_hits"] + values["simt.l2_misses"]);
  for (const char* key : kStallKeys) {
    values[std::string("simt.stall.") + key + "_frac"] =
        ratio(values[std::string("simt.stall.") + key],
              values["simt.stall_total"]);
  }
  values["simt.host_ns_per_winst"] =
      ratio(gpu_host_s * 1e9, values["simt.warp_insts"]);
}

void check_repeats(RunContext& ctx, const std::vector<PassResult>& passes) {
  const PassResult& first = passes.front();
  for (const PassResult& p : passes) {
    ctx.out->check(p.digest == first.digest && p.sim_ms == first.sim_ms &&
                       p.colors == first.colors,
                   "simulated outputs repeat across passes");
  }
  ctx.out->digest = first.digest;
}

void emit_end_to_end(RunContext& ctx, const std::vector<double>& setups,
                     const PassTimes& times,
                     const std::vector<PassResult>& passes,
                     std::size_t requests) {
  // Every host time is scaled by the host_scale() taken before its pass;
  // set-ups, which ran before the first pass, take the run's median scale.
  std::vector<double> run_s;
  std::vector<double> latency_ms;
  std::vector<double> tails;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const double scale = times.untraced_scale[i];
    run_s.push_back(times.untraced[i] * scale);
    std::vector<double> scaled = passes[i].latency_ms;
    for (double& ms : scaled) ms *= scale;
    latency_ms.insert(latency_ms.end(), scaled.begin(), scaled.end());
    tails.push_back(tail_of(scaled).value);
  }
  const double setup_scale = median(times.untraced_scale);
  std::vector<double> scaled_setups = setups;
  for (double& s : scaled_setups) s *= setup_scale;
  const Tail tail = tail_of(passes.front().latency_ms);
  std::cout << "request latency tail: p" << std::setprecision(4)
            << tail.percentile << " of each pass (" << tail.beyond << " of "
            << tail.samples << " samples beyond it), median over "
            << passes.size() << " passes\n"
            << "host times below are CPU seconds scaled by the host scale "
               "(median "
            << setup_scale << "); unscaled median pass "
            << median(times.untraced) << " s\n";
  const double run = median(run_s);
  Outcome& out = *ctx.out;
  out.e2e("setup_s", median(scaled_setups), "s");
  out.e2e("run_cpu_s", run, "s");
  out.e2e("req_per_cpu_s", static_cast<double>(requests) / run, "1/s");
  out.e2e("op_p50_cpu_ms", median(latency_ms), "ms");
  out.e2e("op_tail_cpu_ms", median(tails), "ms");
  out.e2e("sim_ms", passes.front().sim_ms, "sim-ms");
  out.e2e("colors", passes.front().colors, "colors");
  out.e2e("peak_rss_mb", peak_rss_mib(), "MiB");
}

void emit_layers(RunContext& ctx, const LayerValues& values,
                 const PassTimes& times) {
  for (const auto& [name, unit] : layer_metric_names()) {
    const auto it = values.find(name);
    ctx.out->layer(name, it == values.end() ? 0.0 : it->second, unit);
  }
  const double passes = static_cast<double>(times.traced.size());
  const std::map<std::string, double> self = ctx.tracer->layer_self_seconds();
  std::cout << "CPU self time per traced pass (span minus child spans):\n";
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second / passes;
    std::cout << "  " << std::left << std::setw(10) << layer << std::right
              << std::fixed << std::setprecision(4) << s << " s\n";
    ctx.out->layer(std::string(layer) + ".self_s", s, "s");
  }
  const double overhead = median(times.traced) - median(times.untraced);
  std::cout << "tracing overhead: " << std::setprecision(4) << overhead
            << " s per pass (traced median " << median(times.traced)
            << " s over " << times.traced.size() << ", untraced median "
            << median(times.untraced) << " s over " << times.untraced.size()
            << ")\n";
  ctx.out->layer("trace.overhead_s", overhead, "s");
  const std::string path = ctx.work_dir + "/trace-" + ctx.tracer->workload() +
                           "-" + std::to_string(ctx.seed) + ".json";
  if (ctx.tracer->write_chrome_trace(path)) {
    std::cout << "chrome trace: " << path << " ("
              << ctx.tracer->spans().size() << " spans)\n";
  } else {
    std::cerr << "perfbench: could not write " << path << "\n";
  }
}

}  // namespace perfbench
