#include "padbench/checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace padbench::checks {

bool echo_equal(const padico::util::Message& reply, const std::uint8_t* expect,
                std::size_t n) {
    if (reply.size() != n) return false;
    std::size_t off = 0;
    for (const auto& seg : reply.segments()) {
        if (std::memcmp(seg.data(), expect + off, seg.size()) != 0) return false;
        off += seg.size();
    }
    return true;
}

bool echo_equal(const std::vector<std::uint8_t>& reply,
                const std::uint8_t* expect, std::size_t n) {
    return reply.size() == n && std::memcmp(reply.data(), expect, n) == 0;
}

bool echo_equal(const std::string& reply, const std::uint8_t* expect,
                std::size_t n) {
    return reply.size() == n && std::memcmp(reply.data(), expect, n) == 0;
}

bool frames_equal(std::uint64_t server_frames, std::uint64_t calls) {
    return server_frames == calls;
}

bool near_paper(double half_rtt_us, double paper_us) {
    return std::fabs(half_rtt_us - paper_us) <= 0.10 * paper_us;
}

bool within_link(std::uint64_t bytes, padico::SimTime rtt, double link_mb) {
    return rtt > 0 && padico::mb_per_s(2 * bytes, rtt) <= link_mb;
}

bool FlowOrder::accept(std::uint64_t seq, std::uint64_t sender_sum,
                       std::uint64_t receiver_sum) {
    if (seq != next_ || sender_sum != receiver_sum) return false;
    ++next_;
    return true;
}

bool totals_equal(std::uint64_t sent, std::uint64_t received) {
    return sent == received;
}

bool segment_covers(std::uint64_t segment_bytes, std::uint64_t payload) {
    return segment_bytes >= payload;
}

bool aggregate_within(std::uint64_t bytes, padico::SimTime v_start,
                      padico::SimTime v_end, double capacity_mb) {
    return v_end > v_start && padico::mb_per_s(bytes, v_end - v_start) <= capacity_mb;
}

std::uint64_t weighted_sum_closed(std::uint64_t a, std::uint64_t b,
                                  std::uint64_t lo, std::uint64_t hi) {
    // T1(x) = Σ_{g<x} (g+1) = x(x+1)/2;  T2(x) = Σ_{g<x} g(g+1) = (x-1)x(x+1)/3.
    using u128 = unsigned __int128;
    auto t1 = [](u128 x) { return x * (x + 1) / 2; };
    auto t2 = [](u128 x) { return x == 0 ? u128{0} : (x - 1) * x * (x + 1) / 3; };
    const auto s1 = static_cast<std::uint64_t>(t1(hi) - t1(lo));
    const auto s2 = static_cast<std::uint64_t>(t2(hi) - t2(lo));
    return a * s1 + b * s2;
}

void block_bounds(std::size_t len, int n, int r, std::size_t* lo,
                  std::size_t* hi) {
    const std::size_t un = static_cast<std::size_t>(n);
    const std::size_t ur = static_cast<std::size_t>(r);
    const std::size_t base = len / un, extra = len % un;
    *lo = ur * base + std::min(ur, extra);
    *hi = *lo + base + (ur < extra ? 1 : 0);
}

std::vector<std::size_t> block_cyclic_indices(std::size_t len, int n, int r,
                                              std::size_t grain) {
    std::vector<std::size_t> out;
    const std::size_t stride = grain * static_cast<std::size_t>(n);
    for (std::size_t b = grain * static_cast<std::size_t>(r); b < len; b += stride)
        for (std::size_t g = b; g < std::min(len, b + grain); ++g) out.push_back(g);
    return out;
}

bool plan_covers(const padico::gridccm::RedistPlan& plan, std::size_t len,
                 std::size_t grain) {
    if (plan.n_src < 1 || plan.n_dst < 1) return false;
    std::vector<std::vector<std::size_t>> src_g(static_cast<std::size_t>(plan.n_src));
    for (int r = 0; r < plan.n_src; ++r)
        src_g[static_cast<std::size_t>(r)] =
            block_cyclic_indices(len, plan.n_src, r, grain);
    std::vector<std::uint8_t> seen(len, 0);
    for (const auto& f : plan.fragments) {
        if (f.src < 0 || f.src >= plan.n_src || f.dst < 0 || f.dst >= plan.n_dst)
            return false;
        const auto& sg = src_g[static_cast<std::size_t>(f.src)];
        std::size_t lo = 0, hi = 0;
        block_bounds(len, plan.n_dst, f.dst, &lo, &hi);
        for (std::size_t k = 0; k < f.len; ++k) {
            if (f.src_off + k >= sg.size()) return false;
            const std::size_t g = sg[f.src_off + k];
            if (g != lo + f.dst_off + k || g >= hi) return false;
            if (seen[g]++ != 0) return false;
        }
    }
    return std::all_of(seen.begin(), seen.end(), [](std::uint8_t s) { return s == 1; });
}

bool result_block_ok(const std::vector<std::uint64_t>& got,
                     const std::vector<std::size_t>& globals,
                     const std::vector<std::size_t>& member_lo,
                     const std::vector<std::uint64_t>& member_sum) {
    if (got.size() != globals.size()) return false;
    for (std::size_t j = 0; j < got.size(); ++j) {
        std::uint64_t want = 0;
        for (std::size_t m = 0; m < member_lo.size(); ++m)
            if (globals[j] == member_lo[m]) want = member_sum[m];
        if (got[j] != want) return false;
    }
    return true;
}

} // namespace padbench::checks
