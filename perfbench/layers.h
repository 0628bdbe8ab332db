#ifndef TQSIM_PERFBENCH_LAYERS_H_
#define TQSIM_PERFBENCH_LAYERS_H_

/**
 * @file
 * The traced run's instruments, all outside the program: timing decorators
 * for the sim::StateBackend / sim::StateArena and dist::Transport seams,
 * per-worker call accumulators, and an in-memory span log.
 *
 * The decorators only forward: every call reaches the wrapped object with
 * the same arguments, so a traced run is bit-identical to an untraced one
 * (the benchmark checks this).  Backend calls run millions of times per
 * circuit, so they are not spans; each worker thread accumulates a call
 * count and busy time per call kind, plus the first and last instant it was
 * inside a call, which bound its active interval for self-time accounting.
 */

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dist/transport.h"
#include "sim/segment_plan.h"
#include "sim/state_backend.h"

namespace tqsim::perfbench {

/** Monotonic nanoseconds (steady clock). */
inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Backend-call kinds the decorators time.  apply_op is split by
 *  sim::SegOpKind; its slots come first, indexed by the enum value. */
enum CallKind : int {
    kOpKinds = 13,  // sim::SegOpKind::kIdentity .. kGateFallback
    kOpOther = kOpKinds,
    kKrausProbability,
    kApplyMatrix,
    kScale,
    kSampleOnce,
    kSnapshot,
    kPrepare,
    kGather,
    kScatter,
    kNumCallKinds,
};

/** Name of apply_op slot @p k ("dense1q", "cx", ...). */
const char* op_kind_name(int k);

/** Call counters of one worker thread (or their sum). */
struct CallTotals
{
    std::uint64_t calls[kNumCallKinds] = {};
    std::uint64_t ns[kNumCallKinds] = {};
    /** Amplitudes touched by apply_op, per slot (calls x 2^n). */
    std::uint64_t amps[kNumCallKinds] = {};
    /** Bytes produced by snapshot calls. */
    std::uint64_t snapshot_bytes = 0;
    /** Snapshot calls served from the arena free list. */
    std::uint64_t snapshot_pool_hits = 0;
    /** Sum over workers of (last call end - first call start) minus
     *  the busy time in calls: the executor's own time between calls. */
    std::uint64_t self_ns = 0;

    std::uint64_t apply_op_calls() const;
    std::uint64_t apply_op_ns() const;
    /** Adds @p o with every field divided by @p runs (a per-run mean). */
    void add(const CallTotals& o, std::uint64_t runs = 1);
};

/**
 * Per-worker accumulators.  Each thread writes only its own slot; slots
 * are read after the parallel region that wrote them has completed
 * (execute_tree returns only after its workers finish), so the pool's
 * completion handshake orders the writes before the read.
 */
class CallStats
{
  public:
    /** The process-wide instance the decorators record into. */
    static CallStats& instance();

    /** Records one call of @p kind that ran over [start, end). */
    void record(CallKind kind, std::int64_t start, std::int64_t end,
                std::uint64_t amps = 0);
    /** Records one snapshot of @p bytes, served from the pool or not. */
    void record_snapshot(std::int64_t start, std::int64_t end,
                         std::uint64_t bytes, bool from_pool);

    /** Zeroes every worker's slot.  Call only while no backend call runs. */
    void reset();
    /** Sums the worker slots.  Call only while no backend call runs. */
    CallTotals totals() const;

  private:
    struct Worker
    {
        CallTotals t;
        std::int64_t first_ns = 0;
        std::int64_t last_ns = 0;
    };
    Worker& local();

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Worker>> workers_;
};

/** dist::Transport decorator: times gather/scatter on an owned
 *  InProcessTransport.  Exchange accounting (account_pass) lands on this
 *  object, which is the transport the sharded backend sees. */
class TimedTransport final : public dist::Transport
{
  public:
    const char* name() const override { return "timed-in-process"; }
    void gather_slices(const std::vector<sim::StateVector>& slices,
                       const std::vector<int>& members,
                       sim::StateVector& staging,
                       sim::Index slice_dim) override;
    void scatter_slices(const sim::StateVector& staging,
                        const std::vector<int>& members,
                        std::vector<sim::StateVector>& slices,
                        sim::Index slice_dim) override;

  private:
    dist::InProcessTransport inner_;
};

/** sim::StateBackend decorator: forwards every call to @p inner and times
 *  the per-node ones into CallStats::instance(). */
class TimedBackend final : public sim::StateBackend
{
  public:
    explicit TimedBackend(std::unique_ptr<sim::StateBackend> inner);

    const char* name() const override { return inner_->name(); }
    int num_qubits() const override { return inner_->num_qubits(); }
    std::uint64_t state_bytes() const override
    {
        return inner_->state_bytes();
    }
    std::unique_ptr<sim::StateArena> make_arena(bool use_pool) override;
    std::unique_ptr<sim::PreparedSegment> prepare(
        const sim::CompiledSegment& segment) override;
    void apply_op(sim::BackendState& state,
                  const sim::PreparedSegment& segment,
                  std::size_t op_index) override;
    void apply_gate(sim::BackendState& state, const sim::Gate& gate) override;
    double kraus_probability(const sim::BackendState& state,
                             const int* qubits, int arity,
                             const sim::Matrix& k) const override;
    void apply_matrix(sim::BackendState& state, const int* qubits, int arity,
                      const sim::Matrix& m) override;
    void scale(sim::BackendState& state, sim::Complex factor) override;
    sim::Index sample_once(const sim::BackendState& state,
                           util::Rng& rng) const override;
    void export_amplitudes(const sim::BackendState& state,
                           std::vector<sim::Complex>* out) const override;
    void import_amplitudes(sim::BackendState& state,
                           const std::vector<sim::Complex>& amps) override;
    void reset_state(sim::BackendState& state) override;
    std::uint64_t state_digest(const sim::BackendState& state) const override;
    double norm_squared(const sim::BackendState& state) const override;
    void set_integrity(const util::IntegrityOptions& options) override;
    void reset_comm_stats() override;
    sim::CommCounters comm_stats() const override;

  private:
    std::unique_ptr<sim::StateBackend> inner_;
    std::uint64_t amps_;
};

/**
 * In-memory span log.  A span has a trace id shared by every span of one
 * circuit run or job, its own id, its parent's id (0 at a root) and a
 * worker label; spans are written out once, when the benchmark ends.
 */
class SpanLog
{
  public:
    /** Opens a span; returns its id. */
    std::uint64_t begin(const char* name, std::uint64_t trace,
                        std::uint64_t parent, std::string label = {});
    /** Closes span @p id. */
    void end(std::uint64_t id);
    /** Records a span whose interval is already known. */
    std::uint64_t add(const char* name, std::uint64_t trace,
                      std::uint64_t parent, std::int64_t start_ns,
                      std::int64_t end_ns, std::string label = {});
    /** A fresh trace id. */
    std::uint64_t new_trace();
    /** Duration of closed span @p id in seconds. */
    double seconds(std::uint64_t id) const;
    /** Writes every span as bench JSON rows to @p path (empty: no-op). */
    bool write(const std::string& path) const;

  private:
    struct Span
    {
        const char* name;
        std::uint64_t trace;
        std::uint64_t parent;
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::string label;
    };
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t next_trace_ = 1;
};

}  // namespace tqsim::perfbench

#endif  // TQSIM_PERFBENCH_LAYERS_H_
