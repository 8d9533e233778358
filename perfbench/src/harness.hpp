#pragma once
/// \file harness.hpp
/// Shared machinery of the perfbench binary: the span tracer, the pass
/// loop, summary statistics, the simulated-output digest and the result
/// record every workload fills.
///
/// Every host-time number the benchmark reports is taken here, from
/// outside the library: a Span times one call the benchmark makes into a
/// layer's public function. Nothing inside src/ is instrumented.

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "coloring/coloring.hpp"
#include "graph/csr_graph.hpp"
#include "simt/stats.hpp"

namespace perfbench {

/// Seconds on the steady clock since the process started timing.
double now_seconds();
/// CPU seconds the process has used, summed over all its threads.
///
/// The benchmark's host-time metrics are CPU time, not wall time: on a
/// shared virtual machine the hypervisor can steal a third of the vCPU
/// time of a 4-thread pass, which swings wall time by tens of percent
/// from run to run while the CPU time the work needs moves far less (see
/// host_scale for the rest). Wall time is still printed beside it and
/// drives the Chrome trace.
double cpu_seconds();

/// Elapsed CPU and wall seconds since construction.
class Stopwatch {
 public:
  Stopwatch() : wall0_(now_seconds()), cpu0_(cpu_seconds()) {}
  double cpu() const { return cpu_seconds() - cpu0_; }
  double wall() const { return now_seconds() - wall0_; }

 private:
  double wall0_;
  double cpu0_;
};

/// One recorded span: a call into a layer (or a benchmark phase).
struct SpanRecord {
  std::string name;  ///< "<layer>.<call>", e.g. "graph.cache_load"
  double start_s = 0.0;  ///< wall clock
  double end_s = 0.0;
  double cpu_s = 0.0;    ///< process CPU seconds the span used
  int parent = -1;       ///< index of the enclosing span, -1 at top level
};

/// In-memory span recorder. Spans nest by scope; the layer of a span is
/// its name up to the first '.'. Recording is switched per pass so a traced
/// run can interleave untraced passes and measure its own overhead.
class Tracer {
 public:
  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open a span; returns its index, or -1 when recording is off.
  int open(std::string_view name);
  void close(int index, double cpu_s);

  /// Sum of the CPU seconds of every span named exactly `name`.
  double total_seconds(std::string_view name) const;
  /// Sum of span CPU seconds over names starting with `prefix`.
  double total_seconds_prefix(std::string_view prefix) const;
  /// CPU self time per layer over the spans inside measured passes: each
  /// span's CPU seconds minus its child spans', summed by layer.
  std::map<std::string, double> layer_self_seconds() const;
  /// Chrome-trace JSON ("traceEvents", complete "X" events, microseconds),
  /// the format speckle::prof exports; parent and workload ride in args.
  bool write_chrome_trace(const std::string& path) const;

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::string& workload() const { return workload_; }

 private:
  std::string workload_;
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// Times one call. Always measures (latencies feed the untraced metrics);
/// records a SpanRecord only while the tracer is enabled.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span (idempotent) and return the CPU seconds it used.
  double stop();
  /// Wall seconds of the span (valid after stop()).
  double wall() const { return wall_; }

 private:
  Tracer& tracer_;
  int index_;
  Stopwatch clock_;
  double cpu_ = -1.0;
  double wall_ = 0.0;
};

/// Time `fn` under a span named `name`; returns the CPU seconds it took.
template <typename F>
double timed(Tracer& tracer, std::string_view name, F&& fn) {
  Span span(tracer, name);
  fn();
  return span.stop();
}

// --- statistics ------------------------------------------------------------

double median(const std::vector<double>& values);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// A latency tail: the highest percentile of one pass's samples that
/// leaves at least ten of them beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples above the percentile
};
Tail tail_of(const std::vector<double>& samples);

/// The benchmark's own properness check, independent of the library's
/// verify_coloring: every vertex colored, no edge joining equal colors.
bool proper_coloring(const speckle::graph::CsrGraph& g,
                     const speckle::coloring::Coloring& colors);

// --- simulated-output digest -----------------------------------------------

/// 64-bit hash of simulated outputs (colorings, iterations, KernelStats
/// counters, timelines) or of CSR arrays. Word-at-a-time so hashing the
/// 10^7-entry ingest graphs stays a small share of a pass.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&value, sizeof(T));
  }
  template <typename T>
  void add(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    add<std::uint64_t>(values.size());
    bytes(values.data(), values.size_bytes());
  }
  void add(std::string_view s) {
    add<std::uint64_t>(s.size());
    bytes(s.data(), s.size());
  }
  /// Every KernelStats counter and stall cycle, the transfer totals and,
  /// when `with_timeline`, total_cycles.
  void add_report(const speckle::simt::DeviceReport& report,
                  bool with_timeline);

  std::string hex() const;

 private:
  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

// --- run context and result ------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one benchmark process reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::string digest;  ///< simulated-output digest of one pass

  /// Count one output check; a failure is reported on stderr and counted.
  bool check(bool ok, const std::string& what);
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch space: ingest's cache files and a traced run's Chrome trace.
  std::string work_dir = ".";
  Tracer* tracer = nullptr;
  Outcome* out = nullptr;

  /// A nonzero sub-seed for one input stream, derived from --seed.
  std::uint64_t derive_seed(std::uint64_t stream) const;
};

/// Pass CPU times split by whether the tracer recorded them, plus the
/// wall time of every untraced pass.
struct PassTimes {
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> untraced_wall;
  /// host_scale() measured right before each untraced pass.
  std::vector<double> untraced_scale;
};

/// How much faster than nominal the host runs right now: a fixed reference
/// computation's nominal CPU seconds over its measured CPU seconds.
///
/// On a shared virtual machine the CPU time of the same work drifts by up
/// to a third over minutes as neighbours load the host (clock frequency,
/// busy SMT siblings, memory bandwidth). The end-to-end host times are
/// multiplied by the scale measured next to them, which cancels that
/// drift: they read as CPU seconds on a host where the reference takes its
/// nominal time.
double host_scale();

/// Run `pass` repeatedly until ctx.seconds of wall time have elapsed, at
/// least once. A traced run alternates untraced and traced passes
/// (starting untraced, at least one of each) so the tracing overhead
/// compares like with like. `pass` returns the CPU seconds of its timed
/// section.
PassTimes run_passes(RunContext& ctx, const std::function<double()>& pass);

/// The process's resident-set high-water mark (VmHWM), in MiB.
double peak_rss_mib();

/// The six layers the benchmark attributes time to, plus its own code.
inline const char* const kLayers[] = {"graph",    "simt",     "coloring",
                                      "cpumodel", "multidev", "serve",
                                      "bench"};

/// The paper schemes other than the sequential baseline, by runner name.
inline const char* const kGpuSchemes[] = {"3-step-GM", "T-base", "T-ldg",
                                          "D-base",    "D-ldg",  "csrcolor"};

/// Per-layer values a workload measured, by metric name. emit_layers
/// reports every per-layer metric in one fixed order; a metric the
/// workload's layers do not exercise reads 0.
using LayerValues = std::map<std::string, double>;

/// Fold the simulator counters of one report into the simt.* values.
void add_simt_counters(LayerValues& values,
                       const speckle::simt::DeviceReport& report);
/// Derive the simt ratios (hit ratios, stall fractions, host ns per warp
/// instruction) from the summed counters; `gpu_host_s` is the host time
/// of the simulated colorings behind them.
void finish_simt_ratios(LayerValues& values, double gpu_host_s);

/// What one pass produced; every workload's pass fills these.
struct PassResult {
  double cpu_s = 0.0;   ///< CPU seconds of the pass's timed section
  double wall_s = 0.0;  ///< wall seconds of the same section
  /// CPU ms of each request of the workload's latency class.
  std::vector<double> latency_ms;
  double sim_ms = 0.0;  ///< simulated ms, deterministic
  double colors = 0.0;  ///< colors of the final colorings, deterministic
  std::string digest;   ///< simulated-output digest
  LayerValues layers;   ///< per-layer counters and times of this pass
};

/// Check that every pass repeated the first pass's simulated outputs and
/// record the first digest as the run's.
void check_repeats(RunContext& ctx, const std::vector<PassResult>& passes);

/// Report the end-to-end metrics of an untraced run: medians of the
/// set-ups and passes (CPU time scaled by host_scale), `requests` per pass,
/// the median of the latency samples pooled over every pass, and the
/// median over passes of each pass's latency tail (one contended pass
/// cannot move it).
void emit_end_to_end(RunContext& ctx, const std::vector<double>& setups,
                     const PassTimes& times,
                     const std::vector<PassResult>& passes,
                     std::size_t requests);

/// Report every per-layer metric (in a traced run), plus self times and
/// the tracing overhead; writes the Chrome trace to
/// <work_dir>/trace-<workload>-<seed>.json.
void emit_layers(RunContext& ctx, const LayerValues& values,
                 const PassTimes& times);

}  // namespace perfbench
