/// \file selftest.cpp
/// `padbench --self-test`: every output check must accept a valid input
/// and reject a corrupted one; a check that cannot fail proves nothing.

#include <cstdio>
#include <functional>
#include <string>

#include "padbench/bench.hpp"
#include "padbench/checks.hpp"

namespace padbench {

using namespace padico;

int self_test() {
    int bad = 0;
    auto expect = [&](const char* check, const char* input, bool got, bool want) {
        const bool ok = got == want;
        if (!ok) ++bad;
        std::printf("%-4s %-22s %-44s %s\n", ok ? "ok" : "FAIL", check, input,
                    got ? "accepted" : "rejected");
    };

    // rpc-mix
    const PayloadPool pool(7, 4096, false);
    const std::uint8_t* want = pool.data() + 100;
    util::ByteBuf flipped(want, 1000);
    flipped.data()[999] ^= 1;
    expect("echo_equal", "reply == request", checks::echo_equal(pool.slice(100, 1000), want, 1000), true);
    expect("echo_equal", "one bit flipped", checks::echo_equal(util::to_message(std::move(flipped)), want, 1000), false);
    expect("echo_equal", "reply one byte short", checks::echo_equal(pool.slice(100, 999), want, 1000), false);
    std::vector<std::uint8_t> v(want, want + 1000);
    expect("echo_equal(seq)", "reply == request", checks::echo_equal(v, want, 1000), true);
    v[0] ^= 0x80;
    expect("echo_equal(seq)", "first byte changed", checks::echo_equal(v, want, 1000), false);
    const PayloadPool txt(7, 4096, true);
    std::string s = txt.str(0, 500);
    expect("echo_equal(soap)", "reply == request", checks::echo_equal(s, txt.data(), 500), true);
    s[250] = s[250] == 'A' ? 'B' : 'A';
    expect("echo_equal(soap)", "middle character changed", checks::echo_equal(s, txt.data(), 500), false);
    expect("frames_equal", "frames == calls", checks::frames_equal(4800, 4800), true);
    expect("frames_equal", "one frame lost", checks::frames_equal(4799, 4800), false);
    expect("near_paper", "20.9 us vs 20 us", checks::near_paper(20.9, 20.0), true);
    expect("near_paper", "70 us vs 62 us", checks::near_paper(70.0, 62.0), false);
    const SimTime honest = transfer_time(2 * 65536, 240.0);
    expect("within_link", "64 KiB echo at 240 MB/s", checks::within_link(65536, honest, 250.0), true);
    expect("within_link", "64 KiB echo at 300 MB/s",
           checks::within_link(65536, transfer_time(2 * 65536, 300.0), 250.0), false);

    // nic-share
    {
        checks::FlowOrder f;
        expect("FlowOrder", "seq 0 then 1", f.accept(0, 5, 5) && f.accept(1, 6, 6), true);
        expect("FlowOrder", "seq 1 again (duplicate)", f.accept(1, 6, 6), false);
    }
    {
        checks::FlowOrder f;
        expect("FlowOrder", "seq 1 before seq 0", f.accept(1, 5, 5), false);
        expect("FlowOrder", "checksum differs", f.accept(0, 5, 6), false);
    }
    expect("totals_equal", "equal totals", checks::totals_equal(1 << 20, 1 << 20), true);
    expect("totals_equal", "receiver short by 1 byte", checks::totals_equal(1 << 20, (1 << 20) - 1), false);
    expect("segment_covers", "segment > payload", checks::segment_covers(1100, 1000), true);
    expect("segment_covers", "segment < payload", checks::segment_covers(999, 1000), false);
    expect("aggregate_within", "240 MB in 1 s, 250 MB/s", checks::aggregate_within(240'000'000, 0, sec(1), 250.0), true);
    expect("aggregate_within", "260 MB in 1 s, 250 MB/s", checks::aggregate_within(260'000'000, 0, sec(1), 250.0), false);

    // gridccm-redist
    {
        const std::uint64_t a = 0x9e3779b97f4a7c15ULL, b = 12345677;
        std::vector<std::uint64_t> block;
        for (std::uint64_t g = 300; g < 1000; ++g) block.push_back(checks::element(a, b, g));
        auto scan = [&](const std::vector<std::uint64_t>& x) {
            std::uint64_t sum = 0;
            for (std::size_t j = 0; j < x.size(); ++j) sum += (300 + j + 1) * x[j];
            return sum;
        };
        const std::uint64_t closed = checks::weighted_sum_closed(a, b, 300, 1000);
        expect("member checksum", "scan of [300,1000) == closed", scan(block) == closed, true);
        block[17] += 1;
        expect("member checksum", "one element corrupted", scan(block) == closed, false);
    }
    {
        const std::size_t len = 1000, grain = 64;
        const auto plan = gridccm::compute_plan(gridccm::Distribution::block_cyclic(grain), 2,
                                                gridccm::Distribution::block(), 2, len);
        expect("plan_covers", "compute_plan(block-cyclic -> block)", checks::plan_covers(plan, len, grain), true);
        auto dropped = plan;
        dropped.fragments.pop_back();
        expect("plan_covers", "last fragment dropped", checks::plan_covers(dropped, len, grain), false);
        auto doubled = plan;
        doubled.fragments.push_back(plan.fragments.front());
        expect("plan_covers", "first fragment twice", checks::plan_covers(doubled, len, grain), false);
        auto shifted = plan;
        shifted.fragments[1].dst_off += 1;
        expect("plan_covers", "destination offset shifted", checks::plan_covers(shifted, len, grain), false);
    }
    {
        const std::vector<std::size_t> globals = checks::block_cyclic_indices(1000, 2, 0, 64);
        const std::vector<std::size_t> lo = {0, 500};
        const std::vector<std::uint64_t> sums = {111, 222};
        std::vector<std::uint64_t> got(globals.size(), 0);
        for (std::size_t j = 0; j < globals.size(); ++j)
            for (std::size_t m = 0; m < 2; ++m)
                if (globals[j] == lo[m]) got[j] = sums[m];
        expect("result_block_ok", "checksums at member block starts",
               checks::result_block_ok(got, globals, lo, sums), true);
        auto wrong = got;
        wrong[0] += 1;
        expect("result_block_ok", "member 0 checksum off by one",
               checks::result_block_ok(wrong, globals, lo, sums), false);
        auto stray = got;
        stray[1] = 7;
        expect("result_block_ok", "nonzero element off a block start",
               checks::result_block_ok(stray, globals, lo, sums), false);
    }
    std::printf("self-test: %s (%d check(s) misbehaved)\n", bad == 0 ? "passed" : "FAILED", bad);
    return bad;
}

} // namespace padbench
