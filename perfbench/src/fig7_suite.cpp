/// \file fig7_suite.cpp
/// Workload fig7-suite: the paper's headline experiment as one pass. The
/// seven paper_schemes() color all six Table I graphs at denom 64, block
/// 128, on a 4-thread wave executor; each graph also gets one D-ldg run
/// on four simulated devices with the bfs partitioner. Set-up generates
/// the six graphs.

#include <iomanip>
#include <iostream>
#include <map>

#include "coloring/runner.hpp"
#include "graph/partition.hpp"
#include "graph/suite.hpp"
#include "multidev/multidev.hpp"
#include "support/stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using speckle::coloring::RunResult;
using speckle::coloring::Scheme;
using speckle::graph::CsrGraph;

constexpr std::uint32_t kDenom = 64;
constexpr std::uint32_t kBlock = 128;
constexpr std::uint32_t kThreads = 4;
constexpr std::uint32_t kDevices = 4;
constexpr int kSetups = 3;

/// Geomean speed-up over sequential the paper reports per scheme: the
/// "paper" column of EXPERIMENTS.md's Fig 7 table.
const std::map<std::string, double> kPaperSpeedup = {
    {"3-step-GM", 0.66}, {"T-base", 2.0}, {"T-ldg", 2.0},
    {"D-base", 3.0},     {"D-ldg", 3.0},  {"csrcolor", 2.0}};

struct SuiteGraph {
  std::string name;
  CsrGraph graph;
};

/// Every vertex has exactly one owner shard and local slot.
bool partition_consistent(const CsrGraph& g,
                          const speckle::graph::Partition& p) {
  if (p.owner.size() != g.num_vertices() || p.shards.size() != kDevices) {
    return false;
  }
  std::size_t owned = 0;
  for (const auto& shard : p.shards) owned += shard.owned.size();
  if (owned != g.num_vertices()) return false;
  for (speckle::graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    if (p.owner[v] >= kDevices) return false;
    const auto& shard = p.shards[p.owner[v]];
    if (p.local_index[v] >= shard.owned.size() ||
        shard.owned[p.local_index[v]] != v) {
      return false;
    }
  }
  return true;
}

/// The simulated device time of one coloring. 3-step GM's timeline also
/// holds its CPU-model resolution step, which probes host heap addresses
/// and so is not reproducible; only its kernels and transfers count.
double simulated_ms(Scheme s, const RunResult& r,
                    const speckle::simt::DeviceConfig& dev) {
  if (s != Scheme::kGm3Step) return r.model_ms;
  const auto& rep = r.report;
  return dev.cycles_to_ms(rep.total_kernel_cycles() + rep.h2d.cycles +
                          rep.d2h.cycles);
}

/// Model speed-up over sequential per scheme, one entry per graph.
using Speedups = std::map<std::string, std::vector<double>>;

/// One pass; a request is one coloring call.
PassResult run_pass(RunContext& ctx, const std::vector<SuiteGraph>& graphs,
                    std::uint32_t threads, Speedups& speedups) {
  Tracer& tracer = *ctx.tracer;
  Outcome& out = *ctx.out;
  PassResult pass;
  Digest digest;
  speckle::coloring::RunOptions opts;
  opts.block_size = kBlock;
  opts.scale_caches(kDenom);
  opts.device.host_threads = threads;

  const Stopwatch clock;
  for (const SuiteGraph& sg : graphs) {
    const CsrGraph& g = sg.graph;
    double seq_model_ms = 0.0;
    for (Scheme s : speckle::coloring::paper_schemes()) {
      const std::string name = speckle::coloring::scheme_name(s);
      const bool cpu = s == Scheme::kSequential;
      RunResult r;
      const double secs =
          timed(tracer, cpu ? "cpumodel.sequential" : "coloring." + name,
                [&] { r = speckle::coloring::run_scheme(s, g, opts); });
      pass.latency_ms.push_back(secs * 1e3);
      Span check(tracer, "bench.check");
      out.check(proper_coloring(g, r.coloring), name + " on " + sg.name);
      pass.colors += r.num_colors;
      digest.add(std::span<const std::uint32_t>(r.coloring));
      digest.add(r.num_colors);
      if (cpu) {
        seq_model_ms = r.model_ms;
        continue;
      }
      const double sim = simulated_ms(s, r, opts.device);
      pass.sim_ms += sim;
      pass.layers["coloring." + name + ".sim_ms"] += sim;
      pass.layers["coloring.iterations"] += r.iterations;
      speedups[name].push_back(seq_model_ms / r.model_ms);
      add_simt_counters(pass.layers, r.report);
      digest.add(r.iterations);
      digest.add_report(r.report, s != Scheme::kGm3Step);
    }

    speckle::graph::Partition part;
    timed(tracer, "graph.make_partition", [&] {
      part = speckle::graph::make_partition(
          g, kDevices, speckle::graph::PartitionKind::kBfsBlocks);
    });
    {
      Span check(tracer, "bench.check");
      out.check(partition_consistent(g, part), "bfs partition of " + sg.name);
    }

    speckle::multidev::MultiDevOptions mopts;
    mopts.num_devices = kDevices;
    mopts.partitioner = speckle::graph::PartitionKind::kBfsBlocks;
    mopts.block_size = kBlock;
    mopts.use_ldg = true;
    mopts.device = opts.device;
    speckle::multidev::MultiDevResult m;
    const double secs = timed(tracer, "multidev.color", [&] {
      m = speckle::multidev::multidev_color(g, mopts);
    });
    pass.latency_ms.push_back(secs * 1e3);
    Span check(tracer, "bench.check");
    out.check(proper_coloring(g, m.coloring), "D-ldg P=4 on " + sg.name);
    out.check(m.cut_edges == part.cut_edges,
              "multidev cut matches the bfs partition on " + sg.name);
    pass.colors += m.num_colors;
    pass.sim_ms += m.model_ms;
    pass.layers["multidev.d2d_bytes"] +=
        static_cast<double>(m.fleet_report.d2d.bytes);
    pass.layers["multidev.exchanged_colors"] +=
        static_cast<double>(m.exchanged_colors);
    pass.layers["multidev.hidden_ms"] += m.hidden_ms;
    for (const auto& d : m.devices) {
      pass.layers["multidev.stall_ms"] +=
          opts.device.cycles_to_ms(d.exchange_stall_cycles);
    }
    pass.layers["coloring.iterations"] += m.rounds;
    add_simt_counters(pass.layers, m.fleet_report);
    digest.add(std::span<const std::uint32_t>(m.coloring));
    digest.add(m.rounds);
    digest.add(m.exchanged_colors);
    digest.add_report(m.fleet_report, true);
  }
  pass.cpu_s = clock.cpu();
  pass.wall_s = clock.wall();
  pass.digest = digest.hex();
  return pass;
}

void print_accuracy(const Speedups& speedups) {
  std::cout << "simulated geomean speed-up over sequential vs the paper "
               "(EXPERIMENTS.md Fig 7; the model's only reference result, "
               "so it is otherwise unvalidated):\n";
  for (const char* s : kGpuSchemes) {
    const double model = speckle::support::geomean(speedups.at(s));
    const double paper = kPaperSpeedup.at(s);
    std::cout << "  " << std::left << std::setw(10) << s << std::right
              << std::fixed << std::setprecision(2) << model << "x  paper "
              << paper << "x  rel. error " << std::showpos
              << std::setprecision(1) << (model - paper) / paper * 100.0
              << std::noshowpos << "%\n";
  }
}

}  // namespace

void run_fig7_suite(RunContext& ctx) {
  Tracer& tracer = *ctx.tracer;
  tracer.set_enabled(ctx.trace);
  const std::uint64_t graph_seed = ctx.derive_seed(1);
  std::vector<SuiteGraph> graphs;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    graphs.clear();
    const Stopwatch clock;
    for (const auto& entry : speckle::graph::suite_entries()) {
      SuiteGraph sg{entry.name, {}};
      timed(tracer, "graph.make_suite_graph", [&] {
        sg.graph =
            speckle::graph::make_suite_graph(entry.name, kDenom, graph_seed);
      });
      graphs.push_back(std::move(sg));
    }
    setups.push_back(clock.cpu());
  }
  std::cout << "inputs: Table I suite at denom " << kDenom << ", graph seed "
            << graph_seed << ", " << kThreads << " executor threads\n";

  std::vector<PassResult> passes;
  Speedups speedups;
  const PassTimes times = run_passes(ctx, [&] {
    speedups.clear();
    passes.push_back(run_pass(ctx, graphs, kThreads, speedups));
    return passes.back().cpu_s;
  });
  check_repeats(ctx, passes);
  print_accuracy(speedups);
  if (!ctx.trace) {
    emit_end_to_end(ctx, setups, times, passes,
                    passes.front().latency_ms.size());
    return;
  }

  // Traced run: thread scaling and the digest at one executor thread.
  const PassResult single = run_pass(ctx, graphs, 1, speedups);
  ctx.out->check(single.digest == passes.front().digest,
                 "digest at --threads=1 equals --threads=4");
  std::cout << "digest at 1 executor thread: " << single.digest << "\n";

  LayerValues layers = passes.front().layers;
  const double traced = static_cast<double>(times.traced.size());
  layers["graph.suite_gen_s"] = median(setups);
  layers["graph.partition_s"] =
      tracer.total_seconds("graph.make_partition") / traced;
  layers["multidev.host_s"] = tracer.total_seconds("multidev.color") / traced;
  layers["cpumodel.seq_host_s"] =
      tracer.total_seconds("cpumodel.sequential") / traced;
  for (const char* s : kGpuSchemes) {
    layers[std::string("coloring.") + s + ".host_s"] =
        tracer.total_seconds(std::string("coloring.") + s) / traced;
  }
  // Scaling is a wall-clock property: CPU time does not shrink with threads.
  layers["simt.thread_scaling"] = single.wall_s / median(times.untraced_wall);
  const double gpu_host_s = (tracer.total_seconds_prefix("coloring.") +
                             tracer.total_seconds("multidev.color")) /
                            traced;
  finish_simt_ratios(layers, gpu_host_s);
  emit_layers(ctx, layers, times);
}

}  // namespace perfbench
