/// \file main.cpp
/// perfbench: the repository benchmark's executable.
///
///   perfbench --workload fig7-suite|ingest|serve-mixed --seed N
///             --seconds S --trace 0|1 [--work-dir DIR]
///
/// Prints a human-readable report, then as its last stdout line one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. An untraced run
/// reports the end-to-end metrics, a traced run the per-layer metrics.
/// perfbench/run.py builds this binary and forwards its arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fig7-suite|ingest|serve-mixed "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) usage("bad value for " + flag);
  return value;
}

void print_metrics(const std::vector<perfbench::Metric>& metrics) {
  for (const perfbench::Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunContext ctx;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ctx.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      ctx.seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint(flag, value);
      if (t > 1) usage("--trace takes 0 or 1");
      ctx.trace = t == 1;
    } else if (flag == "--work-dir") {
      ctx.work_dir = value;
    } else {
      usage("unknown option " + flag);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (ctx.seconds < 1) usage("--seconds must be at least 1");

  perfbench::Tracer tracer(workload);
  perfbench::Outcome out;
  ctx.tracer = &tracer;
  ctx.out = &out;
  std::cout << "=== perfbench " << workload << " seed=" << ctx.seed
            << " seconds=" << ctx.seconds
            << (ctx.trace ? " (traced run)" : "") << " ===\n";
  if (workload == "fig7-suite") {
    perfbench::run_fig7_suite(ctx);
  } else if (workload == "ingest") {
    perfbench::run_ingest(ctx);
  } else if (workload == "serve-mixed") {
    perfbench::run_serve_mixed(ctx);
  } else {
    usage("unknown workload '" + workload + "'");
  }

  const auto& metrics = ctx.trace ? out.per_layer : out.end_to_end;
  std::cout << "simulated-output digest: " << out.digest << "\n"
            << "checks: " << out.attempted << " attempted, " << out.failed
            << " failed (failed_frac "
            << (out.attempted ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 0.0)
            << ")\n"
            << (ctx.trace ? "per-layer" : "end-to-end") << " metrics:\n";
  std::cout.flush();
  print_metrics(metrics);

  std::string json = "{\"correct\": ";
  json += out.failed == 0 && out.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // JSON has no NaN/inf; a metric that cannot be computed reads 0.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
