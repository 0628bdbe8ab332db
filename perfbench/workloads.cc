/**
 * @file
 * The benchmark's three workloads.
 *
 *  - paper_budget: one reduced-suite circuit per family (<= 10 qubits) at
 *    the paper's 32000-shot Fig. 11 budget, TQSim interleaved circuit by
 *    circuit with the per-shot baseline, dense backend.
 *  - wide_sharded: 15-16-qubit paper-scale members on the sharded backend
 *    (4 shards) at the smallest budget where DCP builds two levels, so
 *    every global gate moves real bytes through dist::Transport.
 *  - service_mix: a closed loop of 4 clients against a 2-lane JobService
 *    with the reuse cache on; half the jobs repeat an earlier spec.
 *
 * Every workload derives its inputs from the --seed (QV/QSC circuit seeds,
 * RunOptions::seed, the job mix) and checks its outputs: distributions
 * against a shot-derived TVD bound or an exact reference, bit-identity
 * against an independent run, and deterministic counters across passes.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "circuits/adder.h"
#include "circuits/bv.h"
#include "circuits/graph.h"
#include "circuits/qaoa.h"
#include "circuits/qft.h"
#include "circuits/qpe.h"
#include "circuits/qsc.h"
#include "circuits/qv.h"
#include "dist/sharded_backend.h"
#include "dm/dm_simulator.h"
#include "metrics/fidelity.h"
#include "noise/trajectory.h"
#include "service/job_service.h"

namespace tqsim::perfbench {
namespace {

double
seconds_between(std::int64_t t0, std::int64_t t1)
{
    return static_cast<double>(t1 - t0) * 1e-9;
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/** The ExecStats counters documented as deterministic: equal for equal
 *  (circuit, noise, options) at any thread, shard or lane count and cache
 *  state.  Pool hit splits, peak-live counts, cache hits and timings are
 *  documented as timing- or cache-state-dependent and are left out. */
struct Counters
{
    std::uint64_t gates = 0;
    std::uint64_t channels = 0;
    std::uint64_t error_events = 0;
    std::uint64_t state_copies = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t nodes = 0;
    std::uint64_t outcomes = 0;
    std::uint64_t fused_ops = 0;
    std::uint64_t fused_gates_absorbed = 0;
    std::uint64_t comm_bytes = 0;
    std::uint64_t comm_messages = 0;
    std::uint64_t global_gates = 0;

    static Counters
    of(const core::ExecStats& s)
    {
        return {s.gate_applications, s.channel_applications, s.error_events,
                s.state_copies,      s.bytes_copied,         s.nodes_simulated,
                s.outcomes,          s.fused_ops,  s.fused_gates_absorbed,
                s.comm_bytes,        s.comm_messages,        s.global_gates};
    }

    void
    add(const Counters& o)
    {
        gates += o.gates;
        channels += o.channels;
        error_events += o.error_events;
        state_copies += o.state_copies;
        bytes_copied += o.bytes_copied;
        nodes += o.nodes;
        outcomes += o.outcomes;
        fused_ops += o.fused_ops;
        fused_gates_absorbed += o.fused_gates_absorbed;
        comm_bytes += o.comm_bytes;
        comm_messages += o.comm_messages;
        global_gates += o.global_gates;
    }

    bool operator==(const Counters&) const = default;
};

/** Bit-identical distributions and raw outcomes, equal deterministic
 *  counters.  @p ignore_comm skips the exchange counters (a dense run of a
 *  sharded plan exchanges nothing). */
bool
same_result(const core::RunResult& a, const core::RunResult& b,
            bool ignore_comm = false)
{
    Counters ca = Counters::of(a.stats);
    Counters cb = Counters::of(b.stats);
    if (ignore_comm) {
        ca.comm_bytes = cb.comm_bytes = 0;
        ca.comm_messages = cb.comm_messages = 0;
        ca.global_gates = cb.global_gates = 0;
    }
    return a.distribution.probabilities() == b.distribution.probabilities() &&
           a.raw_outcomes == b.raw_outcomes && ca == cb;
}

/** A check bound is this many times the expected TVD. */
constexpr double kTvdBoundFactor = 4.0;

/**
 * Checks a reuse-tree estimate @p tree (raw outcomes collected) against
 * @p other: an independent per-shot estimate from @p other_shots shots, or
 * an exact distribution when @p other_shots is 0.  The tree's per-outcome
 * variance is estimated by batch means over its level-0 subtrees, which are
 * independent while the shots inside one subtree share a noisy prefix; the
 * bound is kTvdBoundFactor times the TVD that variance predicts.
 */
bool
tvd_within_bound(const core::RunResult& tree,
                 const metrics::Distribution& other, double other_shots,
                 double* tvd, double* bound)
{
    const std::size_t k = tree.distribution.size();
    const std::uint64_t batches = tree.plan.tree.arity(0);
    const std::size_t per_batch = tree.raw_outcomes.size() / batches;
    std::vector<double> sum(k, 0.0);
    std::vector<double> sum_sq(k, 0.0);
    std::vector<double> freq(k, 0.0);
    for (std::uint64_t b = 0; b < batches; ++b) {
        std::fill(freq.begin(), freq.end(), 0.0);
        for (std::size_t j = b * per_batch; j < (b + 1) * per_batch; ++j) {
            freq[tree.raw_outcomes[j]] += 1.0 / static_cast<double>(per_batch);
        }
        for (std::size_t i = 0; i < k; ++i) {
            sum[i] += freq[i];
            sum_sq[i] += freq[i] * freq[i];
        }
    }
    const double nb = static_cast<double>(batches);
    double expected = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
        const double mean = sum[i] / nb;
        const double batch_var =
            std::max(0.0, (sum_sq[i] - nb * mean * mean) /
                              std::max(1.0, nb - 1.0));
        double var = batch_var / nb;
        if (other_shots > 0.0) {
            const double p = 0.5 * (tree.distribution[i] + other[i]);
            var += p * (1.0 - p) / other_shots;
        }
        expected += std::sqrt(var);
    }
    // E|X| = sqrt(2/pi) sigma for a normal X; TVD is half the L1 distance.
    expected *= 0.5 * std::sqrt(2.0 / std::numbers::pi);
    *tvd = metrics::total_variation_distance(tree.distribution, other);
    *bound = kTvdBoundFactor * expected;
    return *tvd <= *bound;
}

// ---------------------------------------------------------------------------
// Per-layer figures
// ---------------------------------------------------------------------------

/** Every per-layer metric, in BENCHMARK.json order, with its unit.  A
 *  workload that does not reach a layer reports its metrics as 0. */
struct LayerMetric
{
    std::string name;
    const char* unit;
};

std::vector<LayerMetric>
layer_metric_table()
{
    std::vector<LayerMetric> t = {
        {"sim.apply_op_calls", "count"},
        {"sim.apply_op_s", "s"},
    };
    for (int k = 0; k < kOpKinds; ++k) {
        t.push_back({std::string("sim.apply_op_ns_per_amp.") +
                         op_kind_name(k),
                     "ns"});
    }
    const std::vector<LayerMetric> rest = {
        {"sim.snapshot_calls", "count"},
        {"sim.snapshot_s", "s"},
        {"sim.snapshot_gbps", "GB/s"},
        {"sim.memcpy_gbps", "GB/s"},
        {"sim.pool_hit_ratio", "ratio"},
        {"sim.prepare_s", "s"},
        {"sim.sample_s", "s"},
        {"sim.fused_ops", "count"},
        {"noise.kraus_probability_calls", "count"},
        {"noise.kraus_probability_s", "s"},
        {"noise.apply_matrix_calls", "count"},
        {"noise.apply_matrix_s", "s"},
        {"noise.scale_s", "s"},
        {"noise.compile_s", "s"},
        {"noise.channel_applications", "count"},
        {"noise.error_events", "count"},
        {"core.plan_s", "s"},
        {"core.execute_s", "s"},
        {"core.execute_self_s", "s"},
        {"core.nodes_simulated", "count"},
        {"core.state_copies", "count"},
        {"core.bytes_copied", "B"},
        {"core.speedup_vs_baseline", "ratio"},
        {"core.theoretical_speedup", "ratio"},
        {"core.speedup_vs_theoretical", "ratio"},
        {"core.copy_cost_gates_measured", "gates"},
        {"core.copy_cost_gates_pinned", "gates"},
        {"dist.gather_calls", "count"},
        {"dist.gather_s", "s"},
        {"dist.scatter_calls", "count"},
        {"dist.scatter_s", "s"},
        {"dist.comm_bytes", "B"},
        {"dist.comm_messages", "count"},
        {"dist.global_gates", "count"},
        {"service.submit_us_p50", "us"},
        {"service.run_ms_p50", "ms"},
        {"service.overhead_ms_p50", "ms"},
        {"service.retries", "count"},
        {"service.cache_prefix_hit_ratio", "ratio"},
        {"service.cache_prefix_lookups", "count"},
        {"service.cache_plan_hit_ratio", "ratio"},
        {"service.cache_plan_lookups", "count"},
        {"service.cache_declined", "count"},
        {"service.cache_evictions", "count"},
        {"service.cache_bytes_in_use", "B"},
        {"calib.copy_cost_gates", "gates"},
        {"calib.fused_diag_threshold", "amps"},
        {"calib.max_fused_qubits", "qubits"},
        {"trace.overhead_frac", "ratio"},
    };
    t.insert(t.end(), rest.begin(), rest.end());
    return t;
}

/** Per-layer values by metric name; emit() reports the whole table. */
class LayerFigures
{
  public:
    void set(const std::string& name, double value) { values_[name] = value; }

    /** Fills the figures measured from backend-call totals @p c. */
    void
    set_calls(const CallTotals& c)
    {
        set("sim.apply_op_calls", static_cast<double>(c.apply_op_calls()));
        set("sim.apply_op_s", static_cast<double>(c.apply_op_ns()) * 1e-9);
        for (int k = 0; k < kOpKinds; ++k) {
            set(std::string("sim.apply_op_ns_per_amp.") + op_kind_name(k),
                ratio(c.ns[k], c.amps[k]));
        }
        set("sim.snapshot_calls", static_cast<double>(c.calls[kSnapshot]));
        set("sim.snapshot_s", static_cast<double>(c.ns[kSnapshot]) * 1e-9);
        set("sim.snapshot_gbps", ratio(c.snapshot_bytes, c.ns[kSnapshot]));
        set("sim.pool_hit_ratio",
            ratio(c.snapshot_pool_hits, c.calls[kSnapshot]));
        set("sim.prepare_s", static_cast<double>(c.ns[kPrepare]) * 1e-9);
        set("sim.sample_s", static_cast<double>(c.ns[kSampleOnce]) * 1e-9);
        set("noise.kraus_probability_calls",
            static_cast<double>(c.calls[kKrausProbability]));
        set("noise.kraus_probability_s",
            static_cast<double>(c.ns[kKrausProbability]) * 1e-9);
        set("noise.apply_matrix_calls",
            static_cast<double>(c.calls[kApplyMatrix]));
        set("noise.apply_matrix_s",
            static_cast<double>(c.ns[kApplyMatrix]) * 1e-9);
        set("noise.scale_s", static_cast<double>(c.ns[kScale]) * 1e-9);
        set("core.execute_self_s", static_cast<double>(c.self_ns) * 1e-9);
        set("dist.gather_calls", static_cast<double>(c.calls[kGather]));
        set("dist.gather_s", static_cast<double>(c.ns[kGather]) * 1e-9);
        set("dist.scatter_calls", static_cast<double>(c.calls[kScatter]));
        set("dist.scatter_s", static_cast<double>(c.ns[kScatter]) * 1e-9);
    }

    /** Fills the deterministic ExecStats counters of one pass. */
    void
    set_counters(const Counters& c)
    {
        set("sim.fused_ops", static_cast<double>(c.fused_ops));
        set("noise.channel_applications", static_cast<double>(c.channels));
        set("noise.error_events", static_cast<double>(c.error_events));
        set("core.nodes_simulated", static_cast<double>(c.nodes));
        set("core.state_copies", static_cast<double>(c.state_copies));
        set("core.bytes_copied", static_cast<double>(c.bytes_copied));
        set("dist.comm_bytes", static_cast<double>(c.comm_bytes));
        set("dist.comm_messages", static_cast<double>(c.comm_messages));
        set("dist.global_gates", static_cast<double>(c.global_gates));
    }

    void
    emit(const Calibration& calibration, Report& report)
    {
        set("core.copy_cost_gates_pinned", kPinnedCopyCostGates);
        set("calib.copy_cost_gates", calibration.copy_cost_gates);
        set("calib.fused_diag_threshold",
            static_cast<double>(calibration.fused_diag_threshold));
        set("calib.max_fused_qubits", calibration.max_fused_qubits);
        const std::vector<LayerMetric> table = layer_metric_table();
        for (const auto& [name, value] : values_) {
            if (std::none_of(table.begin(), table.end(),
                             [&](const LayerMetric& m) {
                                 return m.name == name;
                             })) {
                throw std::logic_error("unlisted layer metric " + name);
            }
        }
        for (const LayerMetric& m : table) {
            const auto it = values_.find(m.name);
            const double v = it == values_.end() ? 0.0 : it->second;
            if (std::string(m.unit) == "count" || std::string(m.unit) == "B") {
                report.count(m.name, static_cast<std::uint64_t>(v), m.unit);
            } else {
                report.metric(m.name, v, m.unit);
            }
        }
    }

    static double
    ratio(double num, double den)
    {
        return den > 0.0 ? num / den : 0.0;
    }

  private:
    std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Circuit workloads: paper_budget and wide_sharded
// ---------------------------------------------------------------------------

struct Case
{
    std::string name;
    sim::Circuit circuit;
    core::RunOptions options;
    /** The circuit itself depends on the workload seed (QSC, QV). */
    bool seeded_circuit = false;
    /** Check against dm::dm_output_distribution (only where it is cheap). */
    bool exact_check = false;
};

/** TQSim runs per baseline run of a case. */
constexpr int kTqsimRepeats = 3;

/** Per-layer sums of the traced runs of one case. */
struct TracedSums
{
    int runs = 0;
    double plan_s = 0.0;
    double compile_s = 0.0;
    double execute_s = 0.0;
    double traced_s = 0.0;
    double untraced_s = 0.0;
    CallTotals calls;
};

/** What one case measured over the window. */
struct CaseRuns
{
    std::vector<double> tq_s;
    std::vector<double> base_s;
    std::optional<core::RunResult> first_tq;
    std::optional<core::RunResult> first_base;
    TracedSums traced;
};

class CircuitWorkload final : public Workload
{
  public:
    CircuitWorkload(std::vector<Case> cases, bool sharded)
        : cases_(std::move(cases)),
          sharded_(sharded),
          model_(noise::NoiseModel::sycamore_depolarizing())
    {
    }

    void run(const Settings& settings, const Calibration& calibration,
             SpanLog& spans, Report& report) override;

  private:
    void run_case(std::size_t i, bool first, bool trace, SpanLog& spans,
                  std::uint64_t pass_span, Report& report);
    void traced_run(const Case& c, const core::RunResult& untraced,
                    double untraced_s, SpanLog& spans,
                    std::uint64_t pass_span, CaseRuns& runs,
                    Report& report);
    void check(Report& report);
    std::unique_ptr<sim::StateBackend> timed_backend(const Case& c);

    std::vector<Case> cases_;
    bool sharded_;
    noise::NoiseModel model_;
    std::vector<CaseRuns> runs_;
    TimedTransport transport_;
};

void
CircuitWorkload::run(const Settings& settings,
                     const Calibration& calibration, SpanLog& spans,
                     Report& report)
{
    runs_.assign(cases_.size(), CaseRuns{});
    const std::int64_t begin = now_ns();
    for (std::size_t pass = 0;; ++pass) {
        const std::uint64_t pass_span =
            settings.trace ? spans.begin("workload.pass", 0, 0,
                                         settings.workload + " pass " +
                                             std::to_string(pass))
                           : 0;
        bool done = false;
        for (std::size_t i = 0; i < cases_.size(); ++i) {
            // The first pass always completes, so every case has a sample.
            if (pass > 0 &&
                seconds_between(begin, now_ns()) >= settings.seconds) {
                done = true;
                break;
            }
            run_case(i, pass == 0, settings.trace, spans, pass_span, report);
        }
        if (pass_span != 0) {
            spans.end(pass_span);
        }
        if (done) {
            break;
        }
    }
    const double rss = peak_rss_mb();
    check(report);

    std::vector<double> med_tq;
    std::vector<double> fixed_med_tq;
    std::uint64_t tq_shots = 0;
    std::uint64_t base_shots = 0;
    double tq_s = 0.0;
    double base_s = 0.0;
    std::vector<double> speedups;
    std::vector<double> theoretical;
    Counters counters;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
        const CaseRuns& r = runs_[i];
        std::fprintf(stderr,
                     "  %-12s tqsim %zu runs, median %8.1f ms (min %8.1f)"
                     "  baseline %zu runs, median %8.1f ms\n",
                     cases_[i].name.c_str(), r.tq_s.size(),
                     1e3 * median(r.tq_s),
                     1e3 * *std::min_element(r.tq_s.begin(), r.tq_s.end()),
                     r.base_s.size(), 1e3 * median(r.base_s));
        med_tq.push_back(median(r.tq_s));
        if (!cases_[i].seeded_circuit) {
            fixed_med_tq.push_back(med_tq.back());
        }
        tq_s += med_tq.back();
        base_s += median(r.base_s);
        tq_shots += r.first_tq->stats.outcomes;
        base_shots += r.first_base->stats.outcomes;
        speedups.push_back(median(r.base_s) / med_tq.back());
        theoretical.push_back(r.first_tq->plan.theoretical_speedup());
        counters.add(Counters::of(r.first_tq->stats));
    }
    if (!settings.trace) {
        // Medians per case over the passes, summed over the cases: the
        // time one pass of the suite takes.
        report.metric("shots_per_s", static_cast<double>(tq_shots) / tq_s,
                      "1/s");
        report.metric("baseline_shots_per_s",
                      static_cast<double>(base_shots) / base_s, "1/s");
        report.metric("jobs_per_s",
                      static_cast<double>(cases_.size()) / tq_s, "1/s");
        // A handful of distinct circuits is no job stream: the typical
        // latency is the mean per-case median (one case's median follows
        // the host's load and, for seeded circuits, the seed), and the tail
        // is the slowest case whose circuit the seed does not change.
        report.metric("job_latency_p50_ms",
                      1e3 * tq_s / static_cast<double>(cases_.size()), "ms");
        report.metric("job_latency_tail_ms",
                      1e3 * *std::max_element(fixed_med_tq.begin(),
                                              fixed_med_tq.end()),
                      "ms");
        report.metric("peak_rss_mb", rss, "MiB");
        return;
    }

    LayerFigures fig;
    CallTotals calls;
    TracedSums per_pass;
    std::uint64_t max_state_bytes = 0;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
        const TracedSums& t = runs_[i].traced;
        const double w = 1.0 / t.runs;
        per_pass.plan_s += w * t.plan_s;
        per_pass.compile_s += w * t.compile_s;
        per_pass.execute_s += w * t.execute_s;
        per_pass.traced_s += w * t.traced_s;
        per_pass.untraced_s += w * t.untraced_s;
        calls.add(t.calls, t.runs);
        max_state_bytes = std::max<std::uint64_t>(
            max_state_bytes,
            sim::state_vector_bytes(cases_[i].circuit.num_qubits()));
    }
    fig.set_calls(calls);
    fig.set_counters(counters);
    fig.set("sim.memcpy_gbps", memcpy_gbps(max_state_bytes));
    fig.set("noise.compile_s", per_pass.compile_s);
    fig.set("core.plan_s", per_pass.plan_s);
    fig.set("core.execute_s", per_pass.execute_s);
    const double speedup = geomean(speedups);
    const double theo = geomean(theoretical);
    fig.set("core.speedup_vs_baseline", speedup);
    fig.set("core.theoretical_speedup", theo);
    fig.set("core.speedup_vs_theoretical", LayerFigures::ratio(speedup, theo));
    // Paper Sec. 3.6: copy time per snapshot over time per gate.
    const double per_copy = LayerFigures::ratio(
        static_cast<double>(calls.ns[kSnapshot]),
        static_cast<double>(calls.calls[kSnapshot]));
    const double per_gate = LayerFigures::ratio(
        static_cast<double>(calls.apply_op_ns()),
        static_cast<double>(counters.gates));
    fig.set("core.copy_cost_gates_measured",
            LayerFigures::ratio(per_copy, per_gate));
    fig.set("trace.overhead_frac",
            LayerFigures::ratio(per_pass.traced_s, per_pass.untraced_s) - 1.0);
    fig.emit(calibration, report);
}

void
CircuitWorkload::run_case(std::size_t i, bool first, bool trace,
                          SpanLog& spans, std::uint64_t pass_span,
                          Report& report)
{
    const Case& c = cases_[i];
    CaseRuns& runs = runs_[i];
    // A TQSim run costs a fifth of a baseline run; three per baseline run
    // give the per-case medians and latencies more samples.
    std::optional<core::RunResult> tq;
    for (int rep = 0; rep < kTqsimRepeats; ++rep) {
        report.attempt();
        const std::int64_t t0 = now_ns();
        core::RunResult r = core::run(c.circuit, model_, c.options);
        runs.tq_s.push_back(seconds_between(t0, now_ns()));
        if (tq && !same_result(r, *tq)) {
            report.fail(c.name + ": repeated TQSim run differs");
        }
        tq = std::move(r);
    }
    if (trace) {
        traced_run(c, *tq, runs.tq_s.back(), spans, pass_span, runs, report);
    }
    report.attempt();
    const std::int64_t t2 = now_ns();
    core::RunResult base = core::run_baseline(c.circuit, model_,
                                              c.options.shots,
                                              c.options.executor_options());
    runs.base_s.push_back(seconds_between(t2, now_ns()));
    if (first) {
        runs.first_tq = std::move(*tq);
        runs.first_base = std::move(base);
        return;
    }
    // Same seed, same inputs: every pass must reproduce the first.
    if (!same_result(*tq, *runs.first_tq)) {
        report.fail(c.name + ": TQSim result changed between passes");
    }
    if (!same_result(base, *runs.first_base)) {
        report.fail(c.name + ": baseline result changed between passes");
    }
}

std::unique_ptr<sim::StateBackend>
CircuitWorkload::timed_backend(const Case& c)
{
    const sim::BackendConfig& config = c.options.backend;
    std::unique_ptr<sim::StateBackend> inner;
    if (config.kind == sim::BackendKind::kSharded) {
        inner = std::make_unique<dist::ShardedStateBackend>(
            c.circuit.num_qubits(), config.num_shards, &transport_,
            config.fused_diag_threshold);
    } else {
        inner = core::make_state_backend(config, c.circuit.num_qubits());
    }
    return std::make_unique<TimedBackend>(std::move(inner));
}

void
CircuitWorkload::traced_run(const Case& c, const core::RunResult& untraced,
                            double untraced_s, SpanLog& spans,
                            std::uint64_t pass_span, CaseRuns& runs,
                            Report& report)
{
    const std::uint64_t trace = spans.new_trace();
    const std::uint64_t run_span =
        spans.begin("circuit.run", trace, pass_span, c.name);
    const std::uint64_t plan_span = spans.begin("core.plan", trace, run_span);
    const core::PartitionPlan plan = core::plan(c.circuit, model_, c.options);
    spans.end(plan_span);

    // Segment compilation as the executor performs it, timed on its own
    // (the executor compiles inside execute_tree, out of a decorator's
    // sight).  Not part of the traced run's time.
    sim::FusionOptions fusion;
    fusion.max_fused_qubits =
        core::resolved_max_fused_qubits(c.options.backend.max_fused_qubits);
    const std::int64_t compile_start = now_ns();
    for (std::size_t l = 0; l < plan.num_levels(); ++l) {
        const sim::CompiledSegment segment = noise::compile_segment(
            c.circuit, plan.boundaries[l], plan.boundaries[l + 1], model_,
            fusion);
        (void)segment;
    }
    const std::int64_t compile_end = now_ns();

    std::unique_ptr<sim::StateBackend> backend = timed_backend(c);
    CallStats::instance().reset();
    const std::uint64_t exec_span =
        spans.begin("core.execute", trace, run_span);
    const core::RunResult traced = core::execute_tree(
        c.circuit, model_, plan, c.options.executor_options(), *backend);
    spans.end(exec_span);
    spans.end(run_span);
    spans.add("noise.compile", trace, run_span, compile_start, compile_end);

    TracedSums& t = runs.traced;
    const CallTotals calls = CallStats::instance().totals();
    ++t.runs;
    t.plan_s += spans.seconds(plan_span);
    t.compile_s += seconds_between(compile_start, compile_end);
    t.execute_s += spans.seconds(exec_span);
    t.traced_s += spans.seconds(plan_span) + spans.seconds(exec_span);
    t.untraced_s += untraced_s;
    t.calls.add(calls);
    if (!same_result(traced, untraced)) {
        report.fail(c.name + ": traced run differs from the untraced run");
    }
}

void
CircuitWorkload::check(Report& report)
{
    for (std::size_t i = 0; i < cases_.size(); ++i) {
        const Case& c = cases_[i];
        const CaseRuns& r = runs_[i];
        double tvd = 0.0;
        double bound = 0.0;
        if (!sharded_ &&
            !tvd_within_bound(*r.first_tq, r.first_base->distribution,
                              static_cast<double>(c.options.shots), &tvd,
                              &bound)) {
            report.fail(c.name + ": TVD(TQSim, baseline) " +
                        std::to_string(tvd) + " > bound " +
                        std::to_string(bound));
        }
        if (c.exact_check) {
            const metrics::Distribution exact =
                dm::dm_output_distribution(c.circuit, model_);
            if (!tvd_within_bound(*r.first_tq, exact, 0.0, &tvd, &bound)) {
                report.fail(c.name + ": TVD(TQSim, exact) " +
                            std::to_string(tvd) + " > bound " +
                            std::to_string(bound));
            }
        }
        if (sharded_) {
            // The same plan on the dense backend, outside the window.
            core::RunOptions dense = c.options;
            dense.backend.kind = sim::BackendKind::kDense;
            const core::RunResult ref = core::execute_tree(
                c.circuit, model_, r.first_tq->plan, dense.executor_options());
            if (!same_result(*r.first_tq, ref, /*ignore_comm=*/true)) {
                report.fail(c.name + ": sharded run differs from dense");
            }
        }
    }
}

std::unique_ptr<Workload>
make_paper_budget(std::uint64_t seed)
{
    // One reduced-suite circuit per family at <= 10 qubits (MUL's
    // narrowest reduced member has 11).  QSC and QV take their circuit
    // seeds from the workload seed.
    std::vector<Case> cases;
    auto add = [&](std::string name, sim::Circuit circuit,
                   bool seeded = false) {
        const std::uint64_t run_seed = mix_seed(seed, 100 + cases.size());
        core::RunOptions options = pinned_options(32000, run_seed);
        options.collect_outcomes = true;
        cases.push_back(
            {std::move(name), std::move(circuit), options, seeded});
    };
    add("adder_n10_0", circuits::adder(4, 3, 5, true));
    add("bv_n10", circuits::bernstein_vazirani(
                      10, circuits::default_bv_secret(10)));
    add("qaoa_n9",
        circuits::qaoa_maxcut(circuits::Graph::random(9, 0.6, 0xCAFE0003ULL),
                              {0.8}, {0.7}));
    add("qft_n9", circuits::qft(9, true, false));
    add("qpe_n8_2", circuits::qpe(8, 1.0 / 3.0));
    add("qsc_n9", circuits::qsc(9, 4, mix_seed(seed, 1)), true);
    add("qv_n8", circuits::quantum_volume(8, 6, mix_seed(seed, 2)), true);
    // The density-matrix reference costs about a second here (21 s for
    // adder_n10_0), so only QSC gets the exact check.
    cases[5].exact_check = true;
    return std::make_unique<CircuitWorkload>(std::move(cases), false);
}

std::unique_ptr<Workload>
make_wide_sharded(std::uint64_t seed)
{
    // Paper-scale 15-16-qubit members at 32 shots: the smallest power-of-two
    // budget at which DCP still builds two levels, (16, 2), for all four at
    // the pinned copy cost.
    std::vector<Case> cases;
    auto add = [&](std::string name, sim::Circuit circuit,
                   bool seeded = false) {
        const std::uint64_t run_seed = mix_seed(seed, 200 + cases.size());
        core::RunOptions options = pinned_options(32, run_seed);
        options.collect_outcomes = true;
        options.backend.kind = sim::BackendKind::kSharded;
        options.backend.num_shards = 4;
        cases.push_back(
            {std::move(name), std::move(circuit), options, seeded});
    };
    add("bv_n16", circuits::bernstein_vazirani(
                      16, circuits::default_bv_secret(16)));
    add("qaoa_n15",
        circuits::qaoa_maxcut(circuits::Graph::random(15, 0.6, 0xCAFE0005ULL),
                              {0.8}, {0.7}));
    add("qpe_n16_5", circuits::qpe(16, 1.0 / 3.0));
    add("qsc_n16", circuits::qsc(16, 6, mix_seed(seed, 3)), true);
    return std::make_unique<CircuitWorkload>(std::move(cases), true);
}

// ---------------------------------------------------------------------------
// service_mix
// ---------------------------------------------------------------------------

/** One job of the generated mix (the spec is built at submit time). */
struct JobDesc
{
    std::size_t circuit = 0;
    bool readout_only = false;
    bool baseline = false;
    std::uint64_t shots = 0;
    std::uint64_t run_seed = 0;
    int tenant = 0;
    /** Index of the first job with this spec (itself when new). */
    std::size_t origin = 0;
};

/** What a client saw of one job. */
struct JobRecord
{
    std::size_t index = 0;
    service::JobId id = 0;
    std::int64_t submit_start = 0;
    std::int64_t submit_end = 0;
    std::int64_t done = 0;
    service::JobState state = service::JobState::kSubmitted;
};

/** Closed-loop clients. */
constexpr int kClients = 4;
/** Jobs at the head of the sequence whose counters are reported (a
 *  window of a few seconds completes all of them). */
constexpr std::size_t kCountedJobs = 64;
/** Least distance of a repeated job behind its repeat, so the original
 *  has usually finished (4 clients keep 4 jobs in flight). */
constexpr std::size_t kRepeatDistance = 8;
/** Latency tail percentile: at 200+ jobs a run has >= 10 beyond it. */
constexpr double kTailPercentile = 0.95;

class ServiceWorkload final : public Workload
{
  public:
    explicit ServiceWorkload(std::uint64_t seed);

    void run(const Settings& settings, const Calibration& calibration,
             SpanLog& spans, Report& report) override;

  private:
    service::JobSpec spec(const JobDesc& d) const;
    void window(double seconds, bool trace, SpanLog& spans,
                std::uint64_t parent);

    std::vector<sim::Circuit> circuits_;
    std::vector<JobDesc> jobs_;
    std::unique_ptr<service::JobService> service_;
    std::atomic<std::size_t> next_{0};
    std::vector<JobRecord> records_;
};

ServiceWorkload::ServiceWorkload(std::uint64_t seed)
{
    // 6-9-qubit reduced-suite members; QSC and QV seeded from the run.
    circuits_.push_back(circuits::bernstein_vazirani(
        7, circuits::default_bv_secret(7)));
    circuits_.push_back(circuits::bernstein_vazirani(
        9, circuits::default_bv_secret(9)));
    circuits_.push_back(circuits::qft(6, true, false));
    circuits_.push_back(circuits::qft(8, true, false));
    circuits_.push_back(circuits::qaoa_maxcut(
        circuits::Graph::random(7, 0.6, 0xCAFE0001ULL), {0.8}, {0.7}));
    circuits_.push_back(circuits::qaoa_maxcut(
        circuits::Graph::random(9, 0.6, 0xCAFE0003ULL), {0.8}, {0.7}));
    circuits_.push_back(circuits::qpe(6, 5.0 / 32.0));
    circuits_.push_back(circuits::qpe(8, 1.0 / 3.0));
    circuits_.push_back(circuits::qsc(7, 3, mix_seed(seed, 11)));
    circuits_.push_back(circuits::qsc(9, 4, mix_seed(seed, 12)));
    circuits_.push_back(circuits::quantum_volume(6, 6, mix_seed(seed, 13)));
    circuits_.push_back(circuits::quantum_volume(8, 6, mix_seed(seed, 14)));

    // The job mix.  Even jobs are new (cache inserts and evictions); each
    // odd job repeats an earlier new job of the same kind as the new job
    // just before it, the latest at least kRepeatDistance jobs back (cache
    // leases).  Each block of 8 new jobs holds 5 depolarizing jobs at
    // 2000-4000 shots, 2 readout-only jobs (where cluster fusion applies)
    // and 1 baseline-strategy job at 1000 shots, in a shuffled order; each
    // kind walks its own shuffled cycle through the circuits.  The seed
    // moves circuits, order and run seeds but not the mix's composition,
    // which would otherwise swing the throughputs between seeds.
    util::Rng rng(mix_seed(seed, 10));
    enum Kind { kPlain, kReadout, kBaseline };
    std::vector<std::size_t> cycle[3];
    std::size_t drawn[3] = {0, 0, 0};
    auto next_circuit = [&](int kind) {
        std::vector<std::size_t>& c = cycle[kind];
        if (drawn[kind] % circuits_.size() == 0) {
            c.resize(circuits_.size());
            for (std::size_t i = 0; i < c.size(); ++i) {
                c[i] = i;
            }
            for (std::size_t i = c.size() - 1; i > 0; --i) {
                std::swap(c[i], c[rng.uniform_u64(i + 1)]);
            }
        }
        return c[drawn[kind]++ % c.size()];
    };
    std::vector<int> block;
    std::vector<std::size_t> new_of_kind[3];
    int last_kind = kPlain;
    constexpr std::size_t kJobs = 20000;
    jobs_.reserve(kJobs);
    for (std::size_t k = 0; k < kJobs; ++k) {
        if (k % 2 == 1) {
            const std::vector<std::size_t>& earlier = new_of_kind[last_kind];
            std::size_t target = k - 1;
            for (auto it = earlier.rbegin(); it != earlier.rend(); ++it) {
                if (*it + kRepeatDistance <= k) {
                    target = *it;
                    break;
                }
            }
            jobs_.push_back(jobs_[target]);
            continue;
        }
        const std::size_t j = k / 2;
        if (j % 8 == 0) {
            block = {kPlain, kPlain,   kPlain,   kPlain,
                     kPlain, kReadout, kReadout, kBaseline};
            for (std::size_t i = block.size() - 1; i > 0; --i) {
                std::swap(block[i], block[rng.uniform_u64(i + 1)]);
            }
        }
        last_kind = block[j % 8];
        new_of_kind[last_kind].push_back(k);
        JobDesc d;
        d.circuit = next_circuit(last_kind);
        d.readout_only = last_kind == kReadout;
        d.baseline = last_kind == kBaseline;
        d.shots = d.baseline ? 1000 : 1000 * (2 + drawn[last_kind] % 3);
        d.run_seed = rng.next_u64();
        d.tenant = static_cast<int>(j % 3);
        d.origin = k;
        jobs_.push_back(d);
    }

    service::JobServiceConfig config;
    config.num_lanes = 2;
    config.enable_reuse_cache = true;
    // Small enough that new specs evict older entries within a run.
    config.cache.capacity_bytes = 8ULL << 20;
    service_ = std::make_unique<service::JobService>(config);
}

service::JobSpec
ServiceWorkload::spec(const JobDesc& d) const
{
    static const char* const kTenants[3] = {"alpha", "beta", "gamma"};
    core::RunOptions options = pinned_options(d.shots, d.run_seed);
    if (d.baseline) {
        options.strategy = core::PartitionStrategy::kBaseline;
    }
    return service::JobSpec{
        circuits_[d.circuit],
        d.readout_only ? noise::NoiseModel::readout_only(0.02)
                       : noise::NoiseModel::sycamore_depolarizing(),
        options, kTenants[d.tenant], 0.0};
}

void
ServiceWorkload::window(double seconds, bool trace, SpanLog& spans,
                        std::uint64_t parent)
{
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::vector<JobRecord>> per_client(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            while (now_ns() < deadline) {
                const std::size_t k = next_.fetch_add(1);
                if (k >= jobs_.size()) {
                    break;
                }
                service::JobSpec s = spec(jobs_[k]);
                JobRecord r;
                r.index = k;
                r.submit_start = now_ns();
                r.id = service_->submit(std::move(s));
                r.submit_end = now_ns();
                r.state = service_->wait(r.id).state;
                r.done = now_ns();
                if (trace) {
                    const std::uint64_t t = spans.new_trace();
                    const std::uint64_t job = spans.add(
                        "service.job", t, parent, r.submit_start, r.done,
                        "job " + std::to_string(k));
                    spans.add("service.submit", t, job, r.submit_start,
                              r.submit_end);
                }
                per_client[c].push_back(r);
            }
        });
    }
    for (std::thread& t : clients) {
        t.join();
    }
    for (const auto& recs : per_client) {
        records_.insert(records_.end(), recs.begin(), recs.end());
    }
}

void
ServiceWorkload::run(const Settings& settings,
                     const Calibration& calibration, SpanLog& spans,
                     Report& report)
{
    const std::int64_t begin = now_ns();
    // Traced runs alternate untraced and traced quarters of the window.
    std::vector<std::pair<double, double>> rates;  // (untraced, traced)
    if (!settings.trace) {
        window(settings.seconds, false, spans, 0);
    } else {
        double jobs[2] = {0.0, 0.0};
        double secs[2] = {0.0, 0.0};
        for (int q = 0; q < 4; ++q) {
            const bool traced = q % 2 == 1;
            const std::size_t before = records_.size();
            const std::int64_t t0 = now_ns();
            const std::uint64_t span =
                traced ? spans.begin("workload.quarter", 0, 0,
                                     "service_mix quarter " +
                                         std::to_string(q))
                       : 0;
            window(settings.seconds / 4.0, traced, spans, span);
            if (span != 0) {
                spans.end(span);
            }
            jobs[traced] += static_cast<double>(records_.size() - before);
            secs[traced] += seconds_between(t0, now_ns());
        }
        rates.emplace_back(jobs[0] / secs[0], jobs[1] / secs[1]);
    }
    std::int64_t end = begin;
    for (const JobRecord& r : records_) {
        end = std::max(end, r.done);
    }
    const double window_s = seconds_between(begin, end);
    const double rss = peak_rss_mb();

    // Checks: every completed job against an isolated core::run of its
    // spec, computed once per distinct spec.
    std::map<std::size_t, core::RunResult> refs;
    std::vector<double> latency;
    std::vector<double> submit_us;
    std::vector<double> run_ms;
    std::vector<double> overhead_ms;
    std::uint64_t tq_shots = 0;
    std::uint64_t base_shots = 0;
    std::uint64_t completed = 0;
    Counters counted;
    std::vector<double> theoretical;
    report.attempt(records_.size());
    for (const JobRecord& r : records_) {
        const JobDesc& d = jobs_[r.index];
        if (r.state != service::JobState::kDone) {
            report.fail("job " + std::to_string(r.index) + " ended " +
                        service::job_state_name(r.state));
            continue;
        }
        const core::RunResult& got = service_->result(r.id);
        auto ref = refs.find(d.origin);
        if (ref == refs.end()) {
            const service::JobSpec s = spec(d);
            ref = refs.emplace(d.origin,
                               core::run(s.circuit, s.model, s.options))
                      .first;
        }
        if (!same_result(got, ref->second)) {
            report.fail("job " + std::to_string(r.index) +
                        " differs from its isolated run");
            continue;
        }
        ++completed;
        (d.baseline ? base_shots : tq_shots) += got.stats.outcomes;
        const double lat = seconds_between(r.submit_start, r.done);
        latency.push_back(1e3 * lat);
        submit_us.push_back(1e6 * seconds_between(r.submit_start,
                                                  r.submit_end));
        run_ms.push_back(1e3 * got.stats.wall_seconds);
        overhead_ms.push_back(1e3 * (lat - got.stats.wall_seconds));
        if (r.index < kCountedJobs) {
            counted.add(Counters::of(got.stats));
            if (!d.baseline) {
                theoretical.push_back(got.plan.theoretical_speedup());
            }
        }
    }

    if (!settings.trace) {
        report.metric("shots_per_s", static_cast<double>(tq_shots) / window_s,
                      "1/s");
        report.metric("baseline_shots_per_s",
                      static_cast<double>(base_shots) / window_s, "1/s");
        report.metric("jobs_per_s", static_cast<double>(completed) / window_s,
                      "1/s");
        report.metric("job_latency_p50_ms", percentile(latency, 0.5), "ms");
        report.metric("job_latency_tail_ms",
                      percentile(latency, kTailPercentile), "ms");
        report.metric("peak_rss_mb", rss, "MiB");
        return;
    }

    LayerFigures fig;
    fig.set_counters(counted);
    // Planning and segment compilation of the counted jobs, timed from
    // outside the service (a job whose plan the cache holds skips both).
    double plan_s = 0.0;
    double compile_s = 0.0;
    double execute_s = 0.0;
    for (const JobRecord& r : records_) {
        if (r.index >= kCountedJobs || r.state != service::JobState::kDone) {
            continue;
        }
        const service::JobSpec s = spec(jobs_[r.index]);
        const std::int64_t t0 = now_ns();
        const core::PartitionPlan plan = core::plan(s.circuit, s.model,
                                                    s.options);
        const std::int64_t t1 = now_ns();
        sim::FusionOptions fusion;
        fusion.max_fused_qubits = core::resolved_max_fused_qubits(
            s.options.backend.max_fused_qubits);
        for (std::size_t l = 0; l < plan.num_levels(); ++l) {
            const sim::CompiledSegment segment = noise::compile_segment(
                s.circuit, plan.boundaries[l], plan.boundaries[l + 1],
                s.model, fusion);
            (void)segment;
        }
        plan_s += seconds_between(t0, t1);
        compile_s += seconds_between(t1, now_ns());
        execute_s += service_->result(r.id).stats.wall_seconds;
    }
    fig.set("core.plan_s", plan_s);
    fig.set("noise.compile_s", compile_s);
    fig.set("core.execute_s", execute_s);
    fig.set("core.theoretical_speedup", geomean(theoretical));
    fig.set("sim.memcpy_gbps",
            memcpy_gbps(sim::state_vector_bytes(9)));
    fig.set("service.submit_us_p50", median(submit_us));
    fig.set("service.run_ms_p50", median(run_ms));
    fig.set("service.overhead_ms_p50", median(overhead_ms));
    fig.set("service.retries",
            static_cast<double>(service_->service_stats().retries));
    const service::ReuseCache::Stats cache = service_->cache_stats();
    const double prefix_lookups =
        static_cast<double>(cache.prefix_hits + cache.prefix_misses);
    const double plan_lookups =
        static_cast<double>(cache.plan_hits + cache.plan_misses);
    fig.set("service.cache_prefix_hit_ratio",
            LayerFigures::ratio(static_cast<double>(cache.prefix_hits),
                                prefix_lookups));
    fig.set("service.cache_prefix_lookups", prefix_lookups);
    fig.set("service.cache_plan_hit_ratio",
            LayerFigures::ratio(static_cast<double>(cache.plan_hits),
                                plan_lookups));
    fig.set("service.cache_plan_lookups", plan_lookups);
    fig.set("service.cache_declined", static_cast<double>(cache.declined));
    fig.set("service.cache_evictions", static_cast<double>(cache.evictions));
    fig.set("service.cache_bytes_in_use",
            static_cast<double>(cache.bytes_in_use));
    fig.set("trace.overhead_frac",
            LayerFigures::ratio(rates[0].first, rates[0].second) - 1.0);
    fig.emit(calibration, report);
}

}  // namespace

std::unique_ptr<Workload>
make_workload(const Settings& settings)
{
    if (settings.workload == "paper_budget") {
        return make_paper_budget(settings.seed);
    }
    if (settings.workload == "wide_sharded") {
        return make_wide_sharded(settings.seed);
    }
    if (settings.workload == "service_mix") {
        return std::make_unique<ServiceWorkload>(settings.seed);
    }
    return nullptr;
}

}  // namespace tqsim::perfbench
