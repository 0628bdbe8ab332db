#include "layers.h"

#include <utility>

#include "bench_common.h"

namespace tqsim::perfbench {

const char*
op_kind_name(int k)
{
    static const char* const kNames[kOpKinds] = {
        "identity", "diag_batch", "cphase", "dense1q", "controlled1q",
        "dense2q",  "dense3q",    "dense_kq", "x",     "cx",
        "swap",     "ccx",        "gate_fallback",
    };
    return (k >= 0 && k < kOpKinds) ? kNames[k] : "other";
}

std::uint64_t
CallTotals::apply_op_calls() const
{
    std::uint64_t n = 0;
    for (int k = 0; k <= kOpOther; ++k) {
        n += calls[k];
    }
    return n;
}

std::uint64_t
CallTotals::apply_op_ns() const
{
    std::uint64_t n = 0;
    for (int k = 0; k <= kOpOther; ++k) {
        n += ns[k];
    }
    return n;
}

void
CallTotals::add(const CallTotals& o, std::uint64_t runs)
{
    for (int k = 0; k < kNumCallKinds; ++k) {
        calls[k] += o.calls[k] / runs;
        ns[k] += o.ns[k] / runs;
        amps[k] += o.amps[k] / runs;
    }
    snapshot_bytes += o.snapshot_bytes / runs;
    snapshot_pool_hits += o.snapshot_pool_hits / runs;
    self_ns += o.self_ns / runs;
}

CallStats&
CallStats::instance()
{
    static CallStats stats;
    return stats;
}

CallStats::Worker&
CallStats::local()
{
    thread_local Worker* mine = nullptr;
    if (mine == nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        workers_.push_back(std::make_unique<Worker>());
        mine = workers_.back().get();
    }
    return *mine;
}

void
CallStats::record(CallKind kind, std::int64_t start, std::int64_t end,
                  std::uint64_t amps)
{
    Worker& w = local();
    ++w.t.calls[kind];
    w.t.ns[kind] += static_cast<std::uint64_t>(end - start);
    w.t.amps[kind] += amps;
    if (w.first_ns == 0) {
        w.first_ns = start;
    }
    w.last_ns = end;
}

void
CallStats::record_snapshot(std::int64_t start, std::int64_t end,
                           std::uint64_t bytes, bool from_pool)
{
    record(kSnapshot, start, end);
    Worker& w = local();
    w.t.snapshot_bytes += bytes;
    w.t.snapshot_pool_hits += from_pool ? 1 : 0;
}

void
CallStats::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& w : workers_) {
        *w = Worker{};
    }
}

CallTotals
CallStats::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CallTotals sum;
    for (const auto& w : workers_) {
        CallTotals t = w->t;
        // Transport calls run inside apply_op; count their time once.
        std::uint64_t busy = 0;
        for (int k = 0; k < kNumCallKinds; ++k) {
            busy += (k == kGather || k == kScatter) ? 0 : t.ns[k];
        }
        const auto active =
            static_cast<std::uint64_t>(w->last_ns - w->first_ns);
        t.self_ns = active > busy ? active - busy : 0;
        sum.add(t);
    }
    return sum;
}

// ---------------------------------------------------------------------------

void
TimedTransport::gather_slices(const std::vector<sim::StateVector>& slices,
                              const std::vector<int>& members,
                              sim::StateVector& staging,
                              sim::Index slice_dim)
{
    inner_.set_verify(verify_enabled());
    const std::int64_t t0 = now_ns();
    inner_.gather_slices(slices, members, staging, slice_dim);
    CallStats::instance().record(kGather, t0, now_ns());
}

void
TimedTransport::scatter_slices(const sim::StateVector& staging,
                               const std::vector<int>& members,
                               std::vector<sim::StateVector>& slices,
                               sim::Index slice_dim)
{
    inner_.set_verify(verify_enabled());
    const std::int64_t t0 = now_ns();
    inner_.scatter_slices(staging, members, slices, slice_dim);
    CallStats::instance().record(kScatter, t0, now_ns());
}

// ---------------------------------------------------------------------------

namespace {

/** StateArena decorator: times branch snapshots. */
class TimedArena final : public sim::StateArena
{
  public:
    TimedArena(std::unique_ptr<sim::StateArena> inner, std::uint64_t bytes)
        : inner_(std::move(inner)), bytes_(bytes)
    {
    }

    std::unique_ptr<sim::BackendState>
    make_root() override
    {
        return inner_->make_root();
    }

    std::unique_ptr<sim::BackendState>
    snapshot(const sim::BackendState& src, bool* from_pool) override
    {
        const std::int64_t t0 = now_ns();
        auto copy = inner_->snapshot(src, from_pool);
        CallStats::instance().record_snapshot(t0, now_ns(), bytes_,
                                              *from_pool);
        return copy;
    }

    void
    recycle(std::unique_ptr<sim::BackendState> state) override
    {
        inner_->recycle(std::move(state));
    }

  private:
    std::unique_ptr<sim::StateArena> inner_;
    std::uint64_t bytes_;
};

}  // namespace

TimedBackend::TimedBackend(std::unique_ptr<sim::StateBackend> inner)
    : inner_(std::move(inner)),
      amps_(std::uint64_t{1} << inner_->num_qubits())
{
}

std::unique_ptr<sim::StateArena>
TimedBackend::make_arena(bool use_pool)
{
    return std::make_unique<TimedArena>(inner_->make_arena(use_pool),
                                        inner_->state_bytes());
}

std::unique_ptr<sim::PreparedSegment>
TimedBackend::prepare(const sim::CompiledSegment& segment)
{
    const std::int64_t t0 = now_ns();
    auto prepared = inner_->prepare(segment);
    CallStats::instance().record(kPrepare, t0, now_ns());
    return prepared;
}

void
TimedBackend::apply_op(sim::BackendState& state,
                       const sim::PreparedSegment& segment,
                       std::size_t op_index)
{
    const int kind = static_cast<int>(segment.source().ops()[op_index].kind);
    const std::int64_t t0 = now_ns();
    inner_->apply_op(state, segment, op_index);
    CallStats::instance().record(
        static_cast<CallKind>(kind < kOpKinds ? kind : kOpOther), t0,
        now_ns(), amps_);
}

void
TimedBackend::apply_gate(sim::BackendState& state, const sim::Gate& gate)
{
    inner_->apply_gate(state, gate);
}

double
TimedBackend::kraus_probability(const sim::BackendState& state,
                                const int* qubits, int arity,
                                const sim::Matrix& k) const
{
    const std::int64_t t0 = now_ns();
    const double p = inner_->kraus_probability(state, qubits, arity, k);
    CallStats::instance().record(kKrausProbability, t0, now_ns());
    return p;
}

void
TimedBackend::apply_matrix(sim::BackendState& state, const int* qubits,
                           int arity, const sim::Matrix& m)
{
    const std::int64_t t0 = now_ns();
    inner_->apply_matrix(state, qubits, arity, m);
    CallStats::instance().record(kApplyMatrix, t0, now_ns());
}

void
TimedBackend::scale(sim::BackendState& state, sim::Complex factor)
{
    const std::int64_t t0 = now_ns();
    inner_->scale(state, factor);
    CallStats::instance().record(kScale, t0, now_ns());
}

sim::Index
TimedBackend::sample_once(const sim::BackendState& state,
                          util::Rng& rng) const
{
    const std::int64_t t0 = now_ns();
    const sim::Index outcome = inner_->sample_once(state, rng);
    CallStats::instance().record(kSampleOnce, t0, now_ns());
    return outcome;
}

void
TimedBackend::export_amplitudes(const sim::BackendState& state,
                                std::vector<sim::Complex>* out) const
{
    inner_->export_amplitudes(state, out);
}

void
TimedBackend::import_amplitudes(sim::BackendState& state,
                                const std::vector<sim::Complex>& amps)
{
    inner_->import_amplitudes(state, amps);
}

void
TimedBackend::reset_state(sim::BackendState& state)
{
    inner_->reset_state(state);
}

std::uint64_t
TimedBackend::state_digest(const sim::BackendState& state) const
{
    return inner_->state_digest(state);
}

double
TimedBackend::norm_squared(const sim::BackendState& state) const
{
    return inner_->norm_squared(state);
}

void
TimedBackend::set_integrity(const util::IntegrityOptions& options)
{
    inner_->set_integrity(options);
}

void
TimedBackend::reset_comm_stats()
{
    inner_->reset_comm_stats();
}

sim::CommCounters
TimedBackend::comm_stats() const
{
    return inner_->comm_stats();
}

// ---------------------------------------------------------------------------

std::uint64_t
SpanLog::begin(const char* name, std::uint64_t trace, std::uint64_t parent,
               std::string label)
{
    return add(name, trace, parent, now_ns(), 0, std::move(label));
}

void
SpanLog::end(std::uint64_t id)
{
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(id - 1).end_ns = t;
}

std::uint64_t
SpanLog::add(const char* name, std::uint64_t trace, std::uint64_t parent,
             std::int64_t start_ns, std::int64_t end_ns, std::string label)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, trace, parent, start_ns, end_ns,
                      std::move(label)});
    return spans_.size();
}

std::uint64_t
SpanLog::new_trace()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_trace_++;
}

double
SpanLog::seconds(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Span& s = spans_.at(id - 1);
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

bool
SpanLog::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (path.empty() || spans_.empty()) {
        return true;
    }
    const std::int64_t origin = spans_.front().start_ns;
    bench::JsonRows rows("perfbench-spans");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        rows.begin_row()
            .field("id", static_cast<std::uint64_t>(i + 1))
            .field("trace", s.trace)
            .field("parent", s.parent)
            .field("name", std::string(s.name))
            .field("label", s.label)
            .field("start_us",
                   static_cast<double>(s.start_ns - origin) * 1e-3)
            .field("dur_us",
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
    return rows.write(path);
}

}  // namespace tqsim::perfbench
