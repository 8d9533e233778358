/// \file serve_mixed.cpp
/// Workload serve-mixed: one client in a closed loop drives
/// serve::Session::handle in process (host_threads=1, the speckle_serve
/// default). Set-up LOADs Hamrle3 and G3_circuit at denom 16 and COLORs
/// them with D-ldg; then a seeded stream of 70% vertex QUERY, 10% NCOLORS
/// QUERY, 15% MUTATE (3 inserts + 1 delete) and 5% STATS runs. Every pass
/// starts a fresh session, so every pass repeats the set-up.

#include <algorithm>
#include <iostream>
#include <random>

#include "coloring/recolor.hpp"
#include "coloring/runner.hpp"
#include "graph/mutate.hpp"
#include "graph/suite.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/session.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using speckle::graph::CsrGraph;
using speckle::graph::EdgeMutation;
using speckle::graph::vid_t;
using speckle::serve::Opcode;
using speckle::serve::QueryWhat;
using speckle::serve::Status;
using speckle::serve::WireReader;
using speckle::serve::WireWriter;

constexpr std::uint32_t kDenom = 16;
constexpr std::uint32_t kBlock = 128;
constexpr std::uint32_t kHostThreads = 1;
const char* const kGraphs[] = {"Hamrle3", "G3_circuit"};
constexpr std::size_t kNumGraphs = std::size(kGraphs);

/// One pass's request mix: exact counts, shuffled by the seed, so every
/// pass and every seed has the same number of requests of each kind. Each
/// kind goes one third to Hamrle3 and two thirds to G3_circuit: an exact
/// split keeps the MUTATE median inside one graph's cost cluster instead
/// of between the two, where it would jump with every seed.
constexpr std::size_t kVertexQueries = 2800;
constexpr std::size_t kColorQueries = 400;
constexpr std::size_t kMutates = 600;
constexpr std::size_t kStats = 200;
constexpr std::size_t kRequests =
    kVertexQueries + kColorQueries + kMutates + kStats;
constexpr int kInserts = 3;  ///< per MUTATE batch, plus one delete

const char* const kOpNames[] = {"load", "color", "query", "mutate", "stats"};

std::size_t op_index(Opcode op) { return static_cast<std::size_t>(op) - 1; }

/// The benchmark's own copy of a graph under mutation: sorted adjacency
/// lists, updated by the same rules apply_mutations documents.
class ShadowGraph {
 public:
  explicit ShadowGraph(const CsrGraph& g) : adj_(g.num_vertices()) {
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      adj_[v].assign(g.neighbors(v).begin(), g.neighbors(v).end());
    }
  }
  vid_t size() const { return static_cast<vid_t>(adj_.size()); }
  const std::vector<vid_t>& neighbors(vid_t v) const { return adj_[v]; }
  bool has(vid_t u, vid_t v) const {
    return std::binary_search(adj_[u].begin(), adj_[u].end(), v);
  }
  /// Apply one mutation; true when it changed the edge set.
  bool apply(const EdgeMutation& m) {
    if (m.u == m.v) return false;
    const bool insert = m.kind == EdgeMutation::Kind::kInsert;
    if (has(m.u, m.v) == insert) return false;
    for (auto [a, b] : {std::pair{m.u, m.v}, std::pair{m.v, m.u}}) {
      auto& list = adj_[a];
      const auto it = std::lower_bound(list.begin(), list.end(), b);
      if (insert) {
        list.insert(it, b);
      } else {
        list.erase(it);
      }
    }
    return true;
  }

 private:
  std::vector<std::vector<vid_t>> adj_;
};

/// A raw response payload and the server's handle time.
struct Reply {
  std::vector<std::uint8_t> bytes;
  double handle_s = 0.0;
};

/// The closed-loop client: encode a request, call Session::handle, and
/// decode the reply, each under its own span.
class Client {
 public:
  Client(speckle::serve::Session& session, Tracer& tracer, Outcome& out,
         Digest& digest)
      : session_(session), tracer_(tracer), out_(out), digest_(digest) {}

  template <typename Fill>
  Reply call(Opcode op, Fill&& fill) {
    std::vector<std::uint8_t> request;
    {
      Span span(tracer_, "serve.encode");
      WireWriter body;
      fill(body);
      request = speckle::serve::make_request(op, ++next_id_, body.bytes());
      encode_s_.push_back(span.stop());
    }
    Reply reply;
    {
      Span span(tracer_, std::string("serve.") + kOpNames[op_index(op)]);
      reply.bytes = session_.handle(request);
      reply.handle_s = span.stop();
    }
    handle_s_[op_index(op)].push_back(reply.handle_s);
    digest_.add(std::span<const std::uint8_t>(reply.bytes));
    return reply;
  }

  /// Check the reply is kOk for this request and read its body with
  /// `read`, which must consume it exactly. False on any mismatch.
  template <typename Read>
  bool decode(const Reply& reply, const char* what, Read&& read) {
    Span span(tracer_, "serve.decode");
    WireReader r(reply.bytes);
    const auto status = static_cast<Status>(r.u8());
    const std::uint32_t id = r.u32();
    bool ok = r.ok() && status == Status::kOk && id == next_id_;
    if (ok) {
      read(r);
      ok = r.done();
    }
    decode_s_.push_back(span.stop());
    out_.check(ok, std::string(what) + " returned " +
                       speckle::serve::status_name(status));
    return ok;
  }

  std::vector<double> handle_s_[speckle::serve::kNumOpcodes];
  std::vector<double> encode_s_;
  std::vector<double> decode_s_;

 private:
  speckle::serve::Session& session_;
  Tracer& tracer_;
  Outcome& out_;
  Digest& digest_;
  std::uint32_t next_id_ = 0;
};

/// One MUTATE as sent, with the reply fields the shadow replay must match.
struct MutateRecord {
  std::size_t graph = 0;
  std::vector<EdgeMutation> batch;
  std::uint32_t dirty = 0;
  std::uint8_t mode = 0;
  std::uint32_t num_colors = 0;
  std::uint32_t iterations = 0;
  std::uint64_t model_ns = 0;
};

struct Inputs {
  std::uint64_t graph_seed = 0;
  std::uint64_t stream_seed = 0;
  std::vector<CsrGraph> graphs;  ///< the benchmark's own copies
};

speckle::coloring::RunOptions color_options() {
  speckle::coloring::RunOptions opts;
  opts.block_size = kBlock;
  opts.scale_caches(kDenom);
  opts.device.host_threads = kHostThreads;
  return opts;
}

/// Replay the pass's MUTATE batches through the library calls Session
/// makes, with the Session's device configuration, and compare each step
/// and the final colorings bit for bit.
void shadow_replay(RunContext& ctx, const Inputs& in,
                   const std::vector<MutateRecord>& records,
                   const std::vector<speckle::coloring::Coloring>& served,
                   PassResult& pass) {
  Tracer& tracer = *ctx.tracer;
  Span replay(tracer, "bench.shadow_replay");
  std::vector<CsrGraph> graphs = in.graphs;
  std::vector<speckle::coloring::Coloring> colorings;
  double color_s = 0.0;
  for (const CsrGraph& g : graphs) {
    speckle::coloring::RunResult r;
    color_s += timed(tracer, "coloring.D-ldg", [&] {
      r = speckle::coloring::run_scheme(speckle::coloring::Scheme::kDataLdg,
                                        g, color_options());
    });
    add_simt_counters(pass.layers, r.report);
    colorings.push_back(std::move(r.coloring));
  }
  // The simulator counters here are the two full D-ldg colorings; the
  // recolor results carry no device report.
  pass.layers["coloring.D-ldg.host_s"] = color_s;
  finish_simt_ratios(pass.layers, color_s);
  speckle::coloring::RecolorOptions ropts;
  ropts.block_size = kBlock;
  ropts.use_ldg = true;
  ropts.device = speckle::simt::DeviceConfig::k20c().scaled(kDenom);
  ropts.device.host_threads = kHostThreads;
  bool steps_match = true;
  for (const MutateRecord& rec : records) {
    speckle::graph::MutationOutcome outcome;
    pass.layers["graph.apply_mutations_s"] +=
        timed(tracer, "graph.apply_mutations", [&] {
          outcome = speckle::graph::apply_mutations(graphs[rec.graph],
                                                    rec.batch);
        });
    std::vector<vid_t> dirty;
    timed(tracer, "coloring.dirty_from_inserts", [&] {
      dirty = speckle::coloring::dirty_from_inserts(colorings[rec.graph],
                                                    outcome.inserted);
    });
    speckle::coloring::RecolorResult r;
    pass.layers["coloring.recolor_s"] +=
        timed(tracer, "coloring.recolor_region", [&] {
          r = speckle::coloring::recolor_region(
              outcome.graph, colorings[rec.graph], dirty, ropts);
        });
    steps_match = steps_match && dirty.size() == rec.dirty &&
                  (r.full ? 2 : 1) == rec.mode &&
                  r.num_colors == rec.num_colors &&
                  r.iterations == rec.iterations &&
                  static_cast<std::uint64_t>(r.model_ms * 1e6) == rec.model_ns;
    colorings[rec.graph] = std::move(r.coloring);
    graphs[rec.graph] = std::move(outcome.graph);
  }
  ctx.out->check(steps_match,
                 "shadow recolor steps equal the MUTATE replies");
  ctx.out->check(colorings == served,
                 "shadow colorings equal the Session's bit for bit");
}

/// One pass on a fresh Session: its set-up CPU seconds go to `setups`;
/// the timed section is the request stream; the latency class is MUTATE.
PassResult run_pass(RunContext& ctx, const Inputs& in,
                    std::vector<double>& setups) {
  Tracer& tracer = *ctx.tracer;
  Outcome& out = *ctx.out;
  PassResult pass;
  Digest digest;
  speckle::serve::GraphRegistry registry;
  speckle::serve::SessionConfig config;
  config.block_size = kBlock;
  config.host_threads = kHostThreads;
  speckle::serve::Session session(registry, config);
  Client client(session, tracer, out, digest);

  // Set-up: LOAD and first COLOR of both graphs.
  const Stopwatch setup_clock;
  std::uint32_t handles[kNumGraphs] = {};
  std::uint64_t model_ns = 0;
  for (std::size_t gi = 0; gi < kNumGraphs; ++gi) {
    const Reply load = client.call(Opcode::kLoad, [&](WireWriter& w) {
      w.str(kGraphs[gi]);
      w.u32(kDenom);
      w.u64(in.graph_seed);
    });
    std::uint64_t n = 0, m = 0;
    client.decode(load, "LOAD", [&](WireReader& r) {
      handles[gi] = r.u32();
      n = r.u64();
      m = r.u64();
      r.u8();
    });
    out.check(n == in.graphs[gi].num_vertices() &&
                  m == in.graphs[gi].num_edges(),
              std::string("LOAD of ") + kGraphs[gi] + " matches its inputs");
    const Reply color = client.call(Opcode::kColor, [&](WireWriter& w) {
      w.u32(handles[gi]);
      w.str("D-ldg");
      w.u8(0);
    });
    client.decode(color, "COLOR", [&](WireReader& r) {
      r.u32();
      r.u32();
      r.u8();
      model_ns += r.u64();
    });
  }
  setups.push_back(setup_clock.cpu());

  // The stream: exact mix, shuffled; the same sequence every pass.
  std::mt19937_64 rng(in.stream_seed);
  std::vector<std::pair<int, std::size_t>> requests;  // (kind, graph)
  const std::size_t counts[] = {kVertexQueries, kColorQueries, kMutates,
                                kStats};
  for (int kind = 0; kind < 4; ++kind) {
    const std::size_t first = counts[kind] / 3;
    requests.insert(requests.end(), first, {kind, 0});
    requests.insert(requests.end(), counts[kind] - first, {kind, 1});
  }
  std::shuffle(requests.begin(), requests.end(), rng);
  std::vector<ShadowGraph> shadows(in.graphs.begin(), in.graphs.end());
  std::vector<MutateRecord> records;
  std::uint64_t dirty_total = 0;
  std::uint64_t iterations = 0;

  const Stopwatch stream_clock;
  for (const auto& [kind, gi] : requests) {
    ShadowGraph& shadow = shadows[gi];
    const vid_t n = shadow.size();
    if (kind == 0 || kind == 1) {
      const bool vertex = kind == 0;
      const Reply reply = client.call(Opcode::kQuery, [&](WireWriter& w) {
        w.u32(handles[gi]);
        w.u8(static_cast<std::uint8_t>(vertex ? QueryWhat::kVertexColor
                                              : QueryWhat::kNumColors));
        w.u64(vertex ? rng() % n : 0);
      });
      client.decode(reply, "QUERY", [](WireReader& r) { r.u32(); });
    } else if (kind == 2) {
      MutateRecord rec;
      rec.graph = gi;
      for (int e = 0; e < kInserts; ++e) {
        const auto u = static_cast<vid_t>(rng() % n);
        const auto v = static_cast<vid_t>((u + 1 + rng() % (n - 1)) % n);
        rec.batch.push_back({EdgeMutation::Kind::kInsert, u, v});
      }
      // The delete names an edge present before the batch.
      auto u = static_cast<vid_t>(rng() % n);
      while (shadow.neighbors(u).empty()) u = (u + 1) % n;
      const auto& adj = shadow.neighbors(u);
      rec.batch.push_back(
          {EdgeMutation::Kind::kDelete, u, adj[rng() % adj.size()]});
      std::uint32_t expect_applied = 0;
      for (const EdgeMutation& m : rec.batch) {
        expect_applied += shadow.apply(m) ? 1 : 0;
      }
      const Reply reply = client.call(Opcode::kMutate, [&](WireWriter& w) {
        w.u32(handles[gi]);
        w.u32(static_cast<std::uint32_t>(rec.batch.size()));
        for (const EdgeMutation& m : rec.batch) {
          w.u8(static_cast<std::uint8_t>(m.kind));
          w.u64(m.u);
          w.u64(m.v);
        }
      });
      pass.latency_ms.push_back(reply.handle_s * 1e3);
      std::uint32_t applied = 0;
      client.decode(reply, "MUTATE", [&](WireReader& r) {
        applied = r.u32();
        r.u32();
        rec.dirty = r.u32();
        rec.mode = r.u8();
        rec.num_colors = r.u32();
        rec.iterations = r.u32();
        rec.model_ns = r.u64();
      });
      out.check(applied == expect_applied,
                "MUTATE applied count matches the benchmark's graph copy");
      model_ns += rec.model_ns;
      dirty_total += rec.dirty;
      iterations += rec.iterations;
      records.push_back(std::move(rec));
    } else {
      const Reply reply = client.call(Opcode::kStats, [](WireWriter&) {});
      client.decode(reply, "STATS", [](WireReader& r) {
        for (int i = 0; i < 12; ++i) r.u64();
        r.u32();
      });
    }
  }
  pass.cpu_s = stream_clock.cpu();
  pass.wall_s = stream_clock.wall();

  // After the stream, untimed: every vertex's color, checked against the
  // benchmark's own copy of the mutated graph.
  std::vector<speckle::coloring::Coloring> served(kNumGraphs);
  for (std::size_t gi = 0; gi < kNumGraphs; ++gi) {
    const ShadowGraph& shadow = shadows[gi];
    auto& colors = served[gi];
    bool replies_ok = true;
    for (vid_t v = 0; v < shadow.size(); ++v) {
      WireWriter w;
      w.u32(handles[gi]);
      w.u8(static_cast<std::uint8_t>(QueryWhat::kVertexColor));
      w.u64(v);
      const auto response = session.handle(
          speckle::serve::make_request(Opcode::kQuery, 0, w.bytes()));
      WireReader r(response);
      replies_ok = replies_ok && r.u8() == 0;
      r.u32();
      colors.push_back(r.u32());
      replies_ok = replies_ok && r.done();
    }
    bool proper = replies_ok;
    std::uint32_t max_color = 0;
    for (vid_t v = 0; v < shadow.size() && proper; ++v) {
      max_color = std::max(max_color, colors[v]);
      proper = colors[v] != 0;
      for (vid_t w : shadow.neighbors(v)) proper = proper && colors[w] != colors[v];
    }
    out.check(proper, std::string("final coloring of ") + kGraphs[gi] +
                          " is proper on the mutated graph");
    pass.colors += max_color;
    digest.add(std::span<const std::uint32_t>(colors));
  }
  pass.sim_ms = static_cast<double>(model_ns) / 1e6;
  pass.digest = digest.hex();

  if (tracer.enabled()) {
    shadow_replay(ctx, in, records, served, pass);
    const auto& stats = session.stats();
    pass.layers["serve.incremental_ratio"] =
        static_cast<double>(stats.incremental_recolors) /
        static_cast<double>(stats.incremental_recolors + stats.full_recolors);
    pass.layers["coloring.recolor_dirty"] = static_cast<double>(dirty_total);
    pass.layers["coloring.iterations"] = static_cast<double>(iterations);
    for (std::size_t op = 0; op < speckle::serve::kNumOpcodes; ++op) {
      pass.layers[std::string("serve.") + kOpNames[op] + ".host_us"] =
          median(client.handle_s_[op]) * 1e6;
    }
    pass.layers["serve.encode_us"] = median(client.encode_s_) * 1e6;
    pass.layers["serve.decode_us"] = median(client.decode_s_) * 1e6;
  }
  return pass;
}

}  // namespace

void run_serve_mixed(RunContext& ctx) {
  Inputs in;
  in.graph_seed = ctx.derive_seed(20);
  in.stream_seed = ctx.derive_seed(21);
  std::vector<double> suite_gen;
  for (const char* name : kGraphs) {
    const Stopwatch clock;
    in.graphs.push_back(
        speckle::graph::make_suite_graph(name, kDenom, in.graph_seed));
    suite_gen.push_back(clock.cpu());
  }
  std::cout << "inputs: Hamrle3 and G3_circuit at denom " << kDenom
            << ", graph seed " << in.graph_seed << ", " << kRequests
            << " requests per pass (" << kMutates << " MUTATE)\n";

  std::vector<PassResult> passes;
  std::vector<double> setups;
  const PassTimes times = run_passes(ctx, [&] {
    passes.push_back(run_pass(ctx, in, setups));
    return passes.back().cpu_s;
  });
  check_repeats(ctx, passes);
  if (!ctx.trace) {
    emit_end_to_end(ctx, setups, times, passes, kRequests);
    return;
  }

  // Per-layer values: the traced passes' means (counts repeat exactly).
  LayerValues layers;
  std::size_t traced = 0;
  for (const PassResult& p : passes) {
    if (p.layers.empty()) continue;
    ++traced;
    for (const auto& [name, value] : p.layers) layers[name] += value;
  }
  for (auto& [name, value] : layers) value /= static_cast<double>(traced);
  double suite_total = 0.0;
  for (double s : suite_gen) suite_total += s;
  layers["graph.suite_gen_s"] = suite_total;
  emit_layers(ctx, layers, times);
}

}  // namespace perfbench
