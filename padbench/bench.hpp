#pragma once
/// \file bench.hpp
/// Shared plumbing of the padbench workloads: seeded input generation, the
/// host-time measurement window, the in-memory span tracer and the result
/// record every workload fills in.
///
/// Every end-to-end metric is on the host clock (what the simulator costs
/// to run); virtual-time results are the model's outputs and are checked
/// and reported per layer only.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace padico::fabric {
class Grid;
class Machine;
} // namespace padico::fabric

namespace padbench {

using Clock = std::chrono::steady_clock;

/// Taken during static initialisation, i.e. at process start: setup_s is
/// measured from here, so it is always one cold set-up.
inline const Clock::time_point kProcessStart = Clock::now();

inline std::uint64_t host_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             kProcessStart)
            .count());
}

/// The paper's testbed shape: \p n dual-CPU nodes, each on one Myrinet-2000
/// segment ("myri0") and one switched Fast-Ethernet segment ("eth0").
std::vector<padico::fabric::Machine*> testbed(padico::fabric::Grid& grid, int n);

// ---------------------------------------------------------------------------
// Seeded inputs

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every input of a run.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /// \p k log-uniform sizes in [lo, hi]: the geometric midpoints of k
    /// equal slices of the log range, in seeded order. Every seed gets the
    /// same sizes (a seed changes their order and the payload bytes), so
    /// runs on different seeds measure the same amount of work.
    std::vector<std::size_t> log_uniform_sizes(std::size_t k, std::size_t lo,
                                               std::size_t hi);

private:
    std::uint64_t s_;
};

/// Derive an independent stream for one purpose of one run.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose) {
    Rng r(seed ^ (purpose * 0xd1b54a32d192ed03ULL));
    return r.next();
}

/// A seeded block of bytes; request payloads are slices of it, so a
/// payload can be regenerated from (seed, offset, length) at check time.
class PayloadPool {
public:
    PayloadPool(std::uint64_t seed, std::size_t bytes, bool printable);
    const padico::util::byte* data() const { return buf_->data(); }
    std::size_t size() const { return buf_->size(); }
    /// Zero-copy view of [off, off + n).
    padico::util::Message slice(std::size_t off, std::size_t n) const {
        return padico::util::Message(padico::util::Segment(buf_, off, n));
    }
    std::string str(std::size_t off, std::size_t n) const {
        return std::string(reinterpret_cast<const char*>(data() + off), n);
    }

private:
    padico::util::BufPtr buf_;
};

/// 64-bit checksum over a byte range (word-wise, order-sensitive).
std::uint64_t checksum(const void* p, std::size_t n);
std::uint64_t checksum(const padico::util::Message& m);

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, reduced at the end of the run.

struct Span {
    const char* name = nullptr;
    std::uint64_t start = 0; ///< host ns since process start
    std::uint64_t end = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0: root
    std::uint64_t req = 0;    ///< operation id shared by one op's spans
};

/// Process-wide tracer. Off (the default) costs one branch per scope.
class Tracer {
public:
    static Tracer& get();
    bool on() const { return on_; }
    void enable() { on_ = true; }

    /// Per-name mean self time (span duration minus the part its children
    /// cover) and span count.
    struct Agg {
        double self_ns_sum = 0;
        std::uint64_t count = 0;
        double mean() const { return count ? self_ns_sum / static_cast<double>(count) : 0.0; }
    };
    Agg aggregate(const char* name) const;
    std::size_t span_count() const;

    /// Write every span to \p path as Chrome trace-event JSON (one track
    /// per thread; loads in Perfetto). Returns false if the file cannot
    /// be written.
    bool write_chrome_json(const std::string& path) const;

private:
    friend class Scope;
    struct ThreadBuf {
        std::vector<Span> spans;
        std::vector<std::uint32_t> stack;
    };
    ThreadBuf& local();

    bool on_ = false;
    std::atomic<std::uint32_t> next_id_{1};
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// RAII span around one call into a layer.
class Scope {
public:
    explicit Scope(const char* name, std::uint64_t req = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Tracer::ThreadBuf* buf_ = nullptr;
    std::size_t index_ = 0;
};

// ---------------------------------------------------------------------------
// Measurement window and results

/// Pin the whole process to one CPU of its allowed set; call before any
/// thread starts so every thread inherits it.
void pin_to_one_cpu();

/// The process's own resident-set high-water mark in MB (VmHWM; unlike
/// getrusage's ru_maxrss it does not carry over from before exec).
double peak_rss_mb();

/// The timed window. Workload threads count completed operations with
/// add(); every \p slice operations the meter takes a sample, and the
/// rates are medians over the slices, so a burst of interference from
/// other tenants of a shared host shifts a few slices and not the
/// reported figure. Slices end on operation counts, not on clock ticks,
/// so a rate is never quantised to whole operations per tick.
///
/// On a shared virtual machine a busy process keeps whatever host CPU it
/// was placed on, and that placement alone moved `gridccm-redist` between
/// about 5k and 9k CPU µs per invocation from run to run. idle_gap() lets the whole process sleep at a
/// slice boundary, so the host may place it afresh; the slice after the
/// gap starts when it ends, so a gap counts in no rate.
class Meter {
public:
    explicit Meter(std::uint64_t slice) : slice_(slice) {}

    void start();
    void stop();
    void add(std::uint64_t ops, std::uint64_t bytes);
    /// Call from the only busy thread, right after the add() that closed
    /// a slice: every kGapEvery of window time it sleeps for kGap.
    void idle_gap();

    double ops_per_s() const;
    double payload_mb_per_s() const;
    double cpu_us_per_op() const;
    /// Voluntary context switches per operation over the whole window.
    double handoffs_per_op() const;

private:
    struct Sample {
        std::uint64_t t = 0, ops = 0, bytes = 0;
        double cpu_us = 0;
        std::int64_t nvcsw = 0;
    };
    void take_sample_locked();
    double median_over_slices(double (*rate)(const Sample&, const Sample&)) const;

    static constexpr std::chrono::milliseconds kGap{20};
    static constexpr std::uint64_t kGapEvery = 200'000'000; ///< ns

    const std::uint64_t slice_;
    std::mutex mu_;
    bool running_ = false;
    std::uint64_t last_gap_ = 0; ///< host ns
    std::uint64_t ops_ = 0, bytes_ = 0;
    std::vector<Sample> samples_;
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// What one workload run reports.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> violations; ///< failed output checks
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;

    void check(bool ok, const std::string& what) {
        if (!ok && violations.size() < 32) violations.push_back(what);
    }
    void e2e(std::string n, double v, std::string u) {
        end_to_end.push_back({std::move(n), v, std::move(u)});
    }
    void layer(std::string n, double v, std::string u) {
        per_layer.push_back({std::move(n), v, std::move(u)});
    }
    /// The five end-to-end metrics of a stopped window, set up at
    /// \p setup_end (host ns since process start).
    void standard_e2e(const Meter& m, std::uint64_t setup_end);
    /// The span-derived metrics shared by all workloads (0 for layers the
    /// workload does not reach).
    void layer_from_span(const char* metric, const char* span);
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

Result run_rpc_mix(const Args& a);
Result run_nic_share(const Args& a);
Result run_gridccm_redist(const Args& a);

/// Names of every per-layer metric, in output order; each workload reports
/// them all (0 where the workload does not reach the layer).
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

/// Exercise every output check on a valid and a corrupted input; returns
/// the number of checks that did not behave (0 = self-test passed).
int self_test();

} // namespace padbench
