/**
 * @file
 * The repository benchmark's binary: times the set-up (circuit generation,
 * worker-pool start, JobService construction and the host calibration
 * calls) several times, runs one workload's measured window, and writes
 * the metrics as bench JSON rows for perfbench/run.py to print.
 *
 *   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
 *                    --json=<metrics file> [--spans=<span file>]
 *
 * Exits 1 when an output check failed, 2 on bad arguments.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sys/resource.h>
#include <vector>

#include "bench.h"
#include "bench_common.h"
#include "core/copy_cost.h"
#include "sim/parallel.h"
#include "util/rng.h"

namespace tqsim::perfbench {

core::RunOptions
pinned_options(std::uint64_t shots, std::uint64_t seed)
{
    core::RunOptions options;
    options.shots = shots;
    options.seed = seed;
    options.copy_cost_gates = kPinnedCopyCostGates;
    options.backend.max_fused_qubits = kPinnedMaxFusedQubits;
    options.backend.fused_diag_threshold = kPinnedFusedDiagThreshold;
    return options;
}

std::uint64_t
mix_seed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
    return util::splitmix64_next(state);
}

void
Report::metric(const std::string& name, double value, const char* unit)
{
    rows_.push_back({name, std::isfinite(value) ? value : 0.0, unit, false,
                     0});
}

void
Report::count(const std::string& name, std::uint64_t value,
              const char* unit)
{
    rows_.push_back({name, static_cast<double>(value), unit, true, value});
}

void
Report::fail(const std::string& what)
{
    ++failed_;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

bool
Report::write(const std::string& path) const
{
    bench::JsonRows rows("perfbench");
    rows.begin_row()
        .field("attempted", attempted_)
        .field("failed", failed_);
    for (const Row& r : rows_) {
        rows.begin_row().field("name", r.name).field("unit", r.unit);
        if (r.integral) {
            rows.field("value", r.count);
        } else {
            rows.field("value", r.value);
        }
    }
    return rows.write(path);
}

void
Report::print() const
{
    for (const Row& r : rows_) {
        std::fprintf(stderr, "  %-40s %16.6g %s\n", r.name.c_str(), r.value,
                     r.unit.c_str());
    }
    std::fprintf(stderr, "  attempted %llu, failed %llu\n",
                 static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed_));
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty()) {
        return 0.0;
    }
    double log_sum = 0.0;
    for (double v : values) {
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
memcpy_gbps(std::uint64_t bytes)
{
    std::vector<char> src(bytes, 1);
    std::vector<char> dst(bytes, 0);
    std::uint64_t copied = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    while (t1 - t0 < 20'000'000) {
        for (int i = 0; i < 16; ++i) {
            std::memcpy(dst.data(), src.data(), bytes);
            src[copied % bytes] = dst[(copied + 1) % bytes];
            copied += bytes;
        }
        t1 = now_ns();
    }
    return static_cast<double>(copied) / static_cast<double>(t1 - t0);
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

/** Set-ups per run; setup_s reports their median. */
constexpr int kSetups = 5;

/** Runs the three host calibrations the executor would otherwise run on
 *  first use, forcing each to measure afresh. */
Calibration
calibrate()
{
    Calibration c;
    // The widths host_copy_cost_in_gates profiles on first use; calling
    // the profiler directly measures again on every set-up.
    c.copy_cost_gates = core::averaged_copy_cost_in_gates({8, 10, 12});
    core::set_tuned_fused_diag_threshold(0);
    c.fused_diag_threshold = core::tuned_fused_diag_threshold();
    core::set_tuned_max_fused_qubits(0);
    c.max_fused_qubits = core::tuned_max_fused_qubits();
    return c;
}

/** Starts the worker pool (it spawns lazily on the first large region). */
void
start_pool()
{
    sim::set_num_threads(kThreads);
    std::vector<double> touch(std::size_t{1} << 18, 0.0);
    sim::parallel_for(touch.size(), [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) {
            touch[i] = 1.0;
        }
    });
}

int
main_impl(int argc, char** argv)
{
    const std::int64_t process_start = now_ns();
    const bench::Flags flags(argc, argv);
    Settings settings;
    settings.workload = flags.get_string("workload", "");
    settings.seed = flags.get_u64("seed", 1);
    settings.seconds = flags.get_double("seconds", 10.0);
    settings.trace = flags.get_u64("trace", 0) != 0;
    settings.spans_out = flags.get_string("spans", "");
    const std::string json_out = flags.get_string("json", "");
    if (!(settings.seconds > 0.0) || json_out.empty()) {
        std::fprintf(stderr, "perfbench: need --seconds>0 and --json=\n");
        return 2;
    }

    std::vector<double> setup_seconds;
    std::vector<double> copy_costs;
    std::vector<double> diag_thresholds;
    std::vector<double> fused_caps;
    std::unique_ptr<Workload> workload;
    for (int i = 0; i < kSetups; ++i) {
        workload.reset();
        const std::int64_t t0 = i == 0 ? process_start : now_ns();
        start_pool();
        const Calibration c = calibrate();
        workload = make_workload(settings);
        setup_seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        if (workload == nullptr) {
            std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                         settings.workload.c_str());
            return 2;
        }
        copy_costs.push_back(c.copy_cost_gates);
        diag_thresholds.push_back(static_cast<double>(c.fused_diag_threshold));
        fused_caps.push_back(c.max_fused_qubits);
    }
    Calibration calibration;
    calibration.copy_cost_gates = median(copy_costs);
    calibration.fused_diag_threshold =
        static_cast<std::uint64_t>(median(diag_thresholds));
    calibration.max_fused_qubits = static_cast<int>(median(fused_caps));
    std::fprintf(stderr,
                 "perfbench: calibration returned copy cost %.3f gates, "
                 "fused-diag threshold %llu amps, fusion cap %d; pinned "
                 "%.1f / %llu / %d\n",
                 calibration.copy_cost_gates,
                 static_cast<unsigned long long>(
                     calibration.fused_diag_threshold),
                 calibration.max_fused_qubits, kPinnedCopyCostGates,
                 static_cast<unsigned long long>(kPinnedFusedDiagThreshold),
                 kPinnedMaxFusedQubits);
    // Anything that still resolves an "auto" setting sees the pinned value.
    core::set_host_copy_cost_in_gates(kPinnedCopyCostGates);
    core::set_tuned_fused_diag_threshold(kPinnedFusedDiagThreshold);
    core::set_tuned_max_fused_qubits(kPinnedMaxFusedQubits);

    Report report;
    SpanLog spans;
    workload->run(settings, calibration, spans, report);
    if (!settings.trace) {
        report.metric("setup_s", median(setup_seconds), "s");
    }
    report.print();
    if (!spans.write(settings.spans_out) || !report.write(json_out)) {
        return 2;
    }
    return report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tqsim::perfbench

int
main(int argc, char** argv)
{
    try {
        return tqsim::perfbench::main_impl(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
