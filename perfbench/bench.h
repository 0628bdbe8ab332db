#ifndef TQSIM_PERFBENCH_BENCH_H_
#define TQSIM_PERFBENCH_BENCH_H_

/**
 * @file
 * Shared vocabulary of the repository benchmark: run settings, the pinned
 * host settings every workload runs with, the report the binary writes,
 * and the workload entry points.  See BENCHMARK.json for the contract and
 * perfbench/README.md for the metric definitions.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tqsim.h"
#include "layers.h"

namespace tqsim::perfbench {

/** Command-line settings of one benchmark run. */
struct Settings
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (empty: nowhere). */
    std::string spans_out;
};

/**
 * Host settings pinned in every workload's inputs.  The calibration calls
 * still run (and are timed into setup_s), but their results vary between
 * back-to-back calls on one host, and a different fusion cap compiles a
 * different plan; pinning keeps the work of a run fixed.  The values are
 * what the calibrations returned on the 4-core reference host
 * (copy cost 0.3 gates, clamped to 1 by host_copy_cost_in_gates).
 */
inline constexpr double kPinnedCopyCostGates = 1.0;
inline constexpr int kPinnedMaxFusedQubits = 4;
inline constexpr std::uint64_t kPinnedFusedDiagThreshold = 65536;
/** Worker threads (the pool size every workload runs with). */
inline constexpr int kThreads = 4;

/** What the host calibration calls returned during set-up. */
struct Calibration
{
    double copy_cost_gates = 0.0;
    std::uint64_t fused_diag_threshold = 0;
    int max_fused_qubits = 0;
};

/** RunOptions with the pinned settings applied. */
core::RunOptions pinned_options(std::uint64_t shots, std::uint64_t seed);

/** Mixes a run seed from the workload seed and a stream index. */
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/** The metrics, operation counts and check failures of one run. */
class Report
{
  public:
    void metric(const std::string& name, double value, const char* unit);
    void count(const std::string& name, std::uint64_t value,
               const char* unit = "count");

    /** Counts one attempted operation. */
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    /** Counts one failed or wrongly-answered operation. */
    void fail(const std::string& what);

    std::uint64_t failed() const { return failed_; }

    /** Writes the report as bench JSON rows to @p path. */
    bool write(const std::string& path) const;
    /** Prints the metrics as a table to stderr. */
    void print() const;

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
        bool integral;
        std::uint64_t count;
    };
    std::vector<Row> rows_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * One workload: its constructor builds the inputs (circuits, service, job
 * mix) inside the timed set-up, run() measures the window.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Runs the measured window and fills @p report. */
    virtual void run(const Settings& settings, const Calibration& calibration,
                     SpanLog& spans, Report& report) = 0;
};

/** Builds @p settings.workload; null for an unknown name. */
std::unique_ptr<Workload> make_workload(const Settings& settings);

/** Linear-interpolated percentile (q in [0, 1]) of @p values. */
double percentile(std::vector<double> values, double q);
/** Median of @p values (0 when empty). */
double median(std::vector<double> values);
/** Geometric mean of positive @p values (0 when empty). */
double geomean(const std::vector<double>& values);
/** Memory-copy bandwidth in GB/s for buffers of @p bytes. */
double memcpy_gbps(std::uint64_t bytes);
/** Process peak resident memory in MiB (getrusage). */
double peak_rss_mb();

}  // namespace tqsim::perfbench

#endif  // TQSIM_PERFBENCH_BENCH_H_
