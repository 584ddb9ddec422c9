#pragma once
/// \file checks.hpp
/// The output checks, as pure functions over what the program returned and
/// what the benchmark expects. They use only the benchmark's own layout
/// formulas and generators, never the program's, so a fault in the
/// program cannot make a check agree with it. self_test() feeds each one a
/// corrupted input to show it can fail.

#include <cstdint>
#include <string>
#include <vector>

#include "gridccm/distribution.hpp"
#include "util/bytes.hpp"
#include "util/simtime.hpp"

namespace padbench::checks {

// --- rpc-mix -----------------------------------------------------------------

/// Reply bytes equal the request bytes.
bool echo_equal(const padico::util::Message& reply, const std::uint8_t* expect,
                std::size_t n);
bool echo_equal(const std::vector<std::uint8_t>& reply,
                const std::uint8_t* expect, std::size_t n);
bool echo_equal(const std::string& reply, const std::uint8_t* expect,
                std::size_t n);

/// Server ingress frames counted by the runtime equal the calls made.
bool frames_equal(std::uint64_t server_frames, std::uint64_t calls);

/// A measured virtual half round trip lies within ±10 % of the paper's.
bool near_paper(double half_rtt_us, double paper_us);

/// A round trip moving \p bytes each way in \p rtt virtual time never
/// exceeds the link bandwidth (MB/s).
bool within_link(std::uint64_t bytes, padico::SimTime rtt, double link_mb);

// --- nic-share ---------------------------------------------------------------

/// Per-flow arrival check: every sequence number once, in order, with the
/// checksum the sender computed.
class FlowOrder {
public:
    bool accept(std::uint64_t seq, std::uint64_t sender_sum,
                std::uint64_t receiver_sum);

private:
    std::uint64_t next_ = 0;
};

/// Receiver byte total of a flow equals the sender's.
bool totals_equal(std::uint64_t sent, std::uint64_t received);

/// The fabric carried at least the application payload.
bool segment_covers(std::uint64_t segment_bytes, std::uint64_t payload);

/// Payload over the union of both flows' virtual windows stays within the
/// NIC capacity (MB/s).
bool aggregate_within(std::uint64_t bytes, padico::SimTime v_start,
                      padico::SimTime v_end, double capacity_mb);

// --- gridccm-redist ----------------------------------------------------------

/// Element g of an invocation's argument: a + b*g (mod 2^64).
inline std::uint64_t element(std::uint64_t a, std::uint64_t b, std::uint64_t g) {
    return a + b * g;
}

/// Σ_{g=lo}^{hi-1} (g+1)·element(a,b,g) (mod 2^64), in closed form.
std::uint64_t weighted_sum_closed(std::uint64_t a, std::uint64_t b,
                                  std::uint64_t lo, std::uint64_t hi);

/// Block layout: [lo, hi) of rank r of n over len elements.
void block_bounds(std::size_t len, int n, int r, std::size_t* lo,
                  std::size_t* hi);

/// Block-cyclic layout: the global indices of rank r's local vector.
std::vector<std::size_t> block_cyclic_indices(std::size_t len, int n, int r,
                                              std::size_t grain);

/// The fragments of a block-cyclic -> block plan cover [0, len) exactly
/// once, each element landing where both layouts put it.
bool plan_covers(const padico::gridccm::RedistPlan& plan, std::size_t len,
                 std::size_t grain);

/// A client's share of a result: member m's checksum at the global index
/// where m's block starts, zero everywhere else.
bool result_block_ok(const std::vector<std::uint64_t>& got,
                     const std::vector<std::size_t>& globals,
                     const std::vector<std::size_t>& member_lo,
                     const std::vector<std::uint64_t>& member_sum);

} // namespace padbench::checks
