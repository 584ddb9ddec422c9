#include "padbench/bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>
#include <unordered_map>

#include "fabric/grid.hpp"

namespace padbench {

std::vector<padico::fabric::Machine*> testbed(padico::fabric::Grid& grid, int n) {
    using padico::fabric::NetTech;
    auto& myri = grid.add_segment("myri0", NetTech::Myrinet2000);
    auto& eth = grid.add_segment("eth0", NetTech::FastEthernet);
    std::vector<padico::fabric::Machine*> nodes;
    for (int i = 0; i < n; ++i) {
        auto& m = grid.add_machine("node" + std::to_string(i), 2);
        grid.attach(m, myri);
        grid.attach(m, eth);
        nodes.push_back(&m);
    }
    return nodes;
}

PayloadPool::PayloadPool(std::uint64_t seed, std::size_t bytes,
                         bool printable) {
    static constexpr char kAlnum[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    padico::util::ByteBuf b(bytes);
    Rng r(seed);
    for (std::size_t i = 0; i < bytes; i += 8) {
        std::uint64_t w = r.next();
        if (printable) {
            for (std::size_t k = 0; k < 8 && i + k < bytes; ++k, w >>= 8)
                b.data()[i + k] = static_cast<padico::util::byte>(
                    kAlnum[(w & 0xff) % (sizeof kAlnum - 1)]);
        } else {
            std::memcpy(b.data() + i, &w, std::min<std::size_t>(8, bytes - i));
        }
    }
    buf_ = padico::util::make_buf(std::move(b));
}

std::vector<std::size_t> Rng::log_uniform_sizes(std::size_t k, std::size_t lo,
                                                std::size_t hi) {
    const double l = std::log(static_cast<double>(lo));
    const double h = std::log(static_cast<double>(hi) + 1.0);
    std::vector<std::size_t> out(k);
    for (std::size_t i = 0; i < k; ++i) {
        const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(k);
        out[i] = std::clamp(static_cast<std::size_t>(std::exp(l + u * (h - l))), lo, hi);
    }
    for (std::size_t i = k; i > 1; --i) std::swap(out[i - 1], out[below(i)]);
    return out;
}

void pin_to_one_cpu() {
    // The highest-numbered allowed CPU: the same one on every run of a
    // host, and not CPU 0, which takes most device interrupts.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (::sched_setaffinity(0, sizeof one, &one) != 0)
            std::fprintf(stderr, "padbench: cannot pin to CPU %d, running unpinned\n", cpu);
        return;
    }
}

double peak_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0;
    char line[256];
    double kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
    std::fclose(f);
    return kb / 1024.0;
}

namespace {
inline std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h * 0xff51afd7ed558ccdULL;
}
struct Summer {
    std::uint64_t h = 0x84222325cbf29ce4ULL;
    std::uint64_t carry = 0; ///< bytes not yet folded (little-endian)
    unsigned nc = 0;
    void add(const std::uint8_t* p, std::size_t n) {
        while (nc != 0 && n != 0) {
            carry |= static_cast<std::uint64_t>(*p++) << (8 * nc);
            --n;
            if (++nc == 8) {
                h = mix(h, carry);
                carry = 0;
                nc = 0;
            }
        }
        for (; n >= 8; n -= 8, p += 8) {
            std::uint64_t w = 0;
            std::memcpy(&w, p, 8);
            h = mix(h, w);
        }
        while (n-- != 0) carry |= static_cast<std::uint64_t>(*p++) << (8 * nc++);
    }
    std::uint64_t done() const { return mix(h, carry ^ (std::uint64_t{nc} << 60)); }
};
} // namespace

std::uint64_t checksum(const void* p, std::size_t n) {
    Summer s;
    s.add(static_cast<const std::uint8_t*>(p), n);
    return s.done();
}

std::uint64_t checksum(const padico::util::Message& m) {
    Summer s;
    for (const auto& seg : m.segments()) s.add(seg.data(), seg.size());
    return s.done();
}

// ---------------------------------------------------------------------------

Tracer& Tracer::get() {
    static Tracer t;
    return t;
}

Tracer::ThreadBuf& Tracer::local() {
    thread_local ThreadBuf* mine = nullptr;
    if (mine == nullptr) {
        auto b = std::make_unique<ThreadBuf>();
        b->spans.reserve(1 << 16);
        mine = b.get();
        std::lock_guard<std::mutex> lk(mu_);
        bufs_.push_back(std::move(b));
    }
    return *mine;
}

Scope::Scope(const char* name, std::uint64_t req) {
    Tracer& t = Tracer::get();
    if (!t.on()) return;
    buf_ = &t.local();
    Span s;
    s.name = name;
    s.id = t.next_id_.fetch_add(1, std::memory_order_relaxed);
    s.parent = buf_->stack.empty() ? 0 : buf_->stack.back();
    s.req = req;
    index_ = buf_->spans.size();
    buf_->stack.push_back(s.id);
    s.start = host_ns();
    buf_->spans.push_back(s);
}

Scope::~Scope() {
    if (buf_ == nullptr) return;
    buf_->spans[index_].end = host_ns();
    buf_->stack.pop_back();
}

Tracer::Agg Tracer::aggregate(const char* name) const {
    std::lock_guard<std::mutex> lk(mu_);
    // Children of a span are recorded on the span's own thread.
    Agg agg;
    for (const auto& b : bufs_) {
        std::unordered_map<std::uint32_t, std::uint64_t> child_ns;
        for (const Span& s : b->spans)
            if (s.parent != 0) child_ns[s.parent] += s.end - s.start;
        for (const Span& s : b->spans) {
            if (std::strcmp(s.name, name) != 0) continue;
            const auto it = child_ns.find(s.id);
            const std::uint64_t dur = s.end - s.start;
            const std::uint64_t kids = it == child_ns.end() ? 0 : it->second;
            agg.self_ns_sum += static_cast<double>(dur - std::min(dur, kids));
            ++agg.count;
        }
    }
    return agg;
}

std::size_t Tracer::span_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const auto& b : bufs_) n += b->spans.size();
    return n;
}

bool Tracer::write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lk(mu_);
    std::fprintf(f, "{\"traceEvents\": [");
    const char* sep = "\n";
    for (std::size_t tid = 0; tid < bufs_.size(); ++tid)
        for (const Span& sp : bufs_[tid]->spans) {
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %zu, "
                         "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, "
                         "\"parent\": %u, \"req\": %llu}}",
                         sep, sp.name, tid, static_cast<double>(sp.start) * 1e-3,
                         static_cast<double>(sp.end - sp.start) * 1e-3, sp.id, sp.parent,
                         static_cast<unsigned long long>(sp.req));
            sep = ",\n";
        }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------

void Meter::take_sample_locked() {
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    auto us = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
    };
    samples_.push_back(Sample{host_ns(), ops_, bytes_,
                              us(ru.ru_utime) + us(ru.ru_stime), ru.ru_nvcsw});
}

void Meter::start() {
    std::lock_guard<std::mutex> lk(mu_);
    running_ = true;
    take_sample_locked();
    last_gap_ = samples_.back().t;
}

void Meter::stop() {
    std::lock_guard<std::mutex> lk(mu_);
    running_ = false;
    if (samples_.size() < 2) take_sample_locked();
}

void Meter::add(std::uint64_t ops, std::uint64_t bytes) {
    std::lock_guard<std::mutex> lk(mu_);
    ops_ += ops;
    bytes_ += bytes;
    if (running_ && ops_ - samples_.back().ops >= slice_) take_sample_locked();
}

void Meter::idle_gap() {
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!running_ || samples_.back().t - last_gap_ < kGapEvery) return;
    }
    std::this_thread::sleep_for(kGap);
    std::lock_guard<std::mutex> lk(mu_);
    // The next slice starts now: drop the boundary sample when no
    // operation completed since it, so the sleep falls between slices.
    if (samples_.back().ops == ops_) samples_.pop_back();
    take_sample_locked();
    last_gap_ = samples_.back().t;
}

double Meter::median_over_slices(double (*rate)(const Sample&, const Sample&)) const {
    std::vector<double> v;
    for (std::size_t i = 1; i < samples_.size(); ++i)
        if (samples_[i].ops > samples_[i - 1].ops && samples_[i].t > samples_[i - 1].t)
            v.push_back(rate(samples_[i - 1], samples_[i]));
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Meter::ops_per_s() const {
    return median_over_slices([](const Sample& a, const Sample& b) {
        return static_cast<double>(b.ops - a.ops) / (static_cast<double>(b.t - a.t) * 1e-9);
    });
}

double Meter::payload_mb_per_s() const {
    return median_over_slices([](const Sample& a, const Sample& b) {
        return static_cast<double>(b.bytes - a.bytes) / (static_cast<double>(b.t - a.t) * 1e-3);
    });
}

double Meter::cpu_us_per_op() const {
    return median_over_slices([](const Sample& a, const Sample& b) {
        return (b.cpu_us - a.cpu_us) / static_cast<double>(b.ops - a.ops);
    });
}

double Meter::handoffs_per_op() const {
    if (samples_.size() < 2) return 0;
    const Sample& a = samples_.front();
    const Sample& b = samples_.back();
    return b.ops == a.ops ? 0.0
                          : static_cast<double>(b.nvcsw - a.nvcsw) /
                                static_cast<double>(b.ops - a.ops);
}

void Result::standard_e2e(const Meter& m, std::uint64_t setup_end) {
    e2e("ops_per_s", m.ops_per_s(), "ops/s");
    e2e("payload_MBps", m.payload_mb_per_s(), "MB/s");
    e2e("cpu_us_per_op", m.cpu_us_per_op(), "us");
    e2e("setup_s", static_cast<double>(setup_end) * 1e-9, "s");
    e2e("peak_rss_MB", peak_rss_mb(), "MB");
    layer("osal.handoffs_per_op", m.handoffs_per_op(), "count");
}

void Result::layer_from_span(const char* metric, const char* span) {
    layer(metric, Tracer::get().aggregate(span).mean(), "ns");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
    static const std::vector<std::pair<std::string, std::string>> kCatalog = {
        {"osal.handoffs_per_op", "count"},
        {"fabric.port_rtt_ns", "ns"},
        {"fabric.port_send_ns", "ns"},
        {"fabric.tx_span_high_water", "count"},
        {"fabric.pruned_spans_per_msg", "count"},
        {"fabric.rx_queue_high_water", "count"},
        {"madeleine.send_ns", "ns"},
        {"padicotm.vlink_rtt_ns", "ns"},
        {"padicotm.circuit_send_ns", "ns"},
        {"padicotm.route_cache_hit_ratio", "ratio"},
        {"corba.marshal_ns", "ns"},
        {"corba.unmarshal_ns", "ns"},
        {"corba.invoke_ns", "ns"},
        {"corba.oneway_ns", "ns"},
        {"soap.call_ns", "ns"},
        {"svc.frames_per_op", "count"},
        {"mpi.send_ns", "ns"},
        {"mpi.recv_ns", "ns"},
        {"mpi.barrier_ns", "ns"},
        {"gridccm.invoke_ns", "ns"},
        {"gridccm.member_call_ns", "ns"},
        {"gridccm.plan_ns", "ns"},
        {"gridccm.plan_cache_hit_ratio", "ratio"},
        {"ccm.deploy_ns", "ns"},
        {"ccm.teardown_ns", "ns"},
        {"virt.call_us.omniORB4", "us"},
        {"virt.call_us.Mico", "us"},
        {"virt.call_us.SOAP", "us"},
        {"virt.aggregate_MBps", "MB/s"},
        {"virt.invoke_us", "us"},
    };
    return kCatalog;
}

} // namespace padbench
