/// \file gridccm_redist.cpp
/// Workload `gridccm-redist`: set-up deploys a 2-member parallel component
/// with ccm::Deployer; a 2-member client group (a PadMPI communicator)
/// then invokes it in a loop through a GridCCM ParallelStub. The clients
/// lay their sequence out block-cyclically and the component by blocks, so
/// every invocation needs a redistribution plan and a fan-out to both
/// members. The operation body is a member barrier plus a checksum of the
/// received block; the loop ends with a teardown. Only this workload
/// exercises gridccm (stub, plan cache, fan-out pool) and ccm deployment.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <mutex>

#include "ccm/deployer.hpp"
#include "gridccm/component.hpp"
#include "osal/sync.hpp"
#include "padbench/bench.hpp"
#include "padbench/checks.hpp"
#include "util/strings.hpp"

namespace padbench {

using namespace padico;
using gridccm::Distribution;

namespace {

constexpr int kMembers = 2;
constexpr int kClients = 2;
constexpr std::size_t kRound = 32; ///< invocations per round
constexpr std::size_t kMinLen = 4 << 10;
constexpr std::size_t kMaxLen = 256 << 10;
constexpr std::size_t kGrain = 64; ///< client block-cyclic grain (elements)
constexpr int kRungRounds = 10;
constexpr int kPlanRepeats = 20;

/// Σ (j+1)·v[j] over the global indices \p lo.. of a contiguous block.
std::uint64_t weighted_sum(const util::Message& m, std::size_t lo) {
    std::vector<std::uint64_t> v(m.size() / sizeof(std::uint64_t));
    m.copy_out(0, v.data(), v.size() * sizeof(std::uint64_t));
    std::uint64_t s = 0;
    for (std::size_t j = 0; j < v.size(); ++j) s += (lo + j + 1) * v[j];
    return s;
}

/// Plain (non-parallel) facet: the member_call rung's target.
class PlainServant : public corba::Servant {
public:
    std::string interface() const override { return "IDL:padbench/Plain:1.0"; }
    void dispatch(const std::string& op, corba::cdr::Decoder& in,
                  corba::cdr::Encoder& out) override {
        if (op != "sum") throw RemoteError("BAD_OPERATION");
        out.put_u64(weighted_sum(in.get_seq_msg<std::uint64_t>(), 0));
    }
};

class RedistComp : public gridccm::ParallelComponent {
public:
    RedistComp() {
        declare_parallel_facet(
            R"(<parallel-interface component="PadbenchRedist" facet="redist"
                                   distribution="block">
                 <operation name="sum" argument="block" result="block"
                            collective="true"/>
               </parallel-interface>)",
            {{"sum", [](const gridccm::OpContext& ctx, util::Message arg) {
                  if (ctx.comm != nullptr) {
                      Scope s("mpi.barrier");
                      ctx.comm->barrier();
                  }
                  // Member m's block starts where the component layout
                  // puts it; the client checks it against its own formula.
                  const auto iv = Distribution::block().intervals(
                      ctx.member_rank, ctx.member_size, ctx.global_len);
                  util::ByteBuf out(ctx.local_len * sizeof(std::uint64_t));
                  if (!iv.empty()) {
                      const std::uint64_t s = weighted_sum(arg, iv.front().lo);
                      std::memcpy(out.data(), &s, sizeof s);
                  }
                  return util::to_message(std::move(out));
              }}});
        provide_facet("plain", std::make_shared<PlainServant>());
    }
    std::string type() const override { return "PadbenchRedist"; }
};

/// One invocation of the round, with everything its check needs.
struct Invocation {
    std::size_t len = 0;
    std::uint64_t total = 0; ///< closed form over [0, len)
    std::vector<std::size_t> member_lo;
    std::vector<std::uint64_t> member_sum;
    std::array<util::BufPtr, kClients> local;              ///< argument blocks
    std::array<std::vector<std::size_t>, kClients> globals; ///< their indices
};

std::vector<Invocation> make_round(std::uint64_t seed) {
    Rng rng(stream_seed(seed, 20));
    std::vector<Invocation> round(kRound);
    const auto lens = rng.log_uniform_sizes(kRound, kMinLen, kMaxLen);
    for (std::size_t i = 0; i < kRound; ++i) {
        Invocation& inv = round[i];
        inv.len = lens[i];
        const std::uint64_t a = rng.next();
        const std::uint64_t b = rng.next() | 1;
        inv.total = checks::weighted_sum_closed(a, b, 0, inv.len);
        for (int m = 0; m < kMembers; ++m) {
            std::size_t lo = 0, hi = 0;
            checks::block_bounds(inv.len, kMembers, m, &lo, &hi);
            inv.member_lo.push_back(lo);
            inv.member_sum.push_back(checks::weighted_sum_closed(a, b, lo, hi));
        }
        for (int r = 0; r < kClients; ++r) {
            auto& g = inv.globals[static_cast<std::size_t>(r)];
            g = checks::block_cyclic_indices(inv.len, kClients, r, kGrain);
            util::ByteBuf buf(g.size() * sizeof(std::uint64_t));
            for (std::size_t j = 0; j < g.size(); ++j) {
                const std::uint64_t v = checks::element(a, b, g[j]);
                std::memcpy(buf.data() + j * sizeof v, &v, sizeof v);
            }
            inv.local[static_cast<std::size_t>(r)] = util::make_buf(std::move(buf));
        }
    }
    return round;
}

} // namespace

Result run_gridccm_redist(const Args& a) {
    static std::once_flag registered;
    std::call_once(registered, [] {
        ccm::ComponentRegistry::register_type(
            "PadbenchRedist", [] { return std::make_unique<RedistComp>(); });
    });
    Result res;
    const std::vector<Invocation> round = make_round(a.seed);
    const corba::OrbProfile profile = corba::profile_omniorb4();

    fabric::Grid grid;
    const auto nodes = testbed(grid, kMembers + kClients);
    auto& front = grid.add_machine("front");
    grid.attach(front, grid.segment("eth0"));

    for (int m = 0; m < kMembers; ++m)
        grid.spawn(*nodes[static_cast<std::size_t>(m)], [&profile](fabric::Process& proc) {
            ccm::component_server_main(proc, profile);
        });

    osal::Event deployed;
    corba::IOR home, plain;
    std::uint64_t deploy_ns = 0, teardown_ns = 0;
    Meter meter(kRound);
    std::uint64_t setup_end = 0, window_ops = 0, invocations = 0;
    std::atomic<std::uint64_t> bad_blocks{0}, returned_total{0};
    std::uint64_t expected_total = 0;
    SimTime virt_sum = 0;

    grid.spawn(front, [&](fabric::Process& proc) {
        ptm::Runtime rt(proc);
        corba::Orb orb(rt, profile);
        ccm::Deployer deployer(orb);
        const std::uint64_t t0 = host_ns();
        const ccm::Deployment dep = deployer.deploy(ccm::Assembly::parse(util::strfmt(
            R"(<assembly name="padbench">
                 <component id="redist" type="PadbenchRedist" parallel="%d"/>
               </assembly>)",
            kMembers)));
        home = deployer.facet_of(dep, ccm::PortAddr{"redist", "redist"});
        deploy_ns = host_ns() - t0;
        const ccm::Placed& placed = dep.placed("redist");
        plain = ccm::connect_component_server(orb, placed.machines[0])
                    .facet(placed.instances[0], "plain");
        deployed.set();
        proc.grid().wait_service("padbench/redist/done");
        const std::uint64_t t1 = host_ns();
        deployer.teardown(dep);
        teardown_ns = host_ns() - t1;
        for (int m = 0; m < kMembers; ++m)
            ccm::connect_component_server(orb, nodes[static_cast<std::size_t>(m)]->name())
                .shutdown();
    });

    for (int r = 0; r < kClients; ++r) {
        grid.spawn(*nodes[static_cast<std::size_t>(kMembers + r)], [&, r](fabric::Process& proc) {
            ptm::Runtime rt(proc);
            corba::Orb orb(rt, profile);
            deployed.wait();
            proc.grid().register_service("padbench/redist/client/" + std::to_string(r), proc.id());
            std::vector<fabric::ProcessId> members;
            for (int i = 0; i < kClients; ++i)
                members.push_back(proc.grid().wait_service("padbench/redist/client/" +
                                                           std::to_string(i)));
            auto world = mpi::World::create(rt, "padbench-clients", members);
            mpi::Comm& comm = world->world();
            gridccm::ParallelStub stub(orb, comm, home, Distribution::block_cyclic(kGrain));
            const auto ur = static_cast<std::size_t>(r);

            auto invoke = [&](const Invocation& inv, std::uint64_t req) {
                const SimTime v0 = proc.now();
                util::Message out;
                {
                    Scope s("gridccm.invoke", req);
                    out = stub.invoke("sum", util::Message(util::Segment(inv.local[ur])),
                                      inv.len, sizeof(std::uint64_t));
                }
                std::vector<std::uint64_t> got(out.size() / sizeof(std::uint64_t));
                out.copy_out(0, got.data(), got.size() * sizeof(std::uint64_t));
                if (!checks::result_block_ok(got, inv.globals[ur], inv.member_lo, inv.member_sum))
                    bad_blocks.fetch_add(1);
                std::uint64_t s = 0;
                for (std::uint64_t x : got) s += x;
                returned_total.fetch_add(s);
                if (r == 0) {
                    expected_total += inv.total;
                    virt_sum += proc.now() - v0;
                    ++invocations;
                }
            };

            for (const Invocation& inv : round) invoke(inv, 0); // warm-up
            comm.barrier();
            std::uint64_t deadline = 0;
            if (r == 0) {
                virt_sum = 0;
                setup_end = host_ns();
                deadline = setup_end + static_cast<std::uint64_t>(a.seconds * 1e9);
                meter.start();
            }
            std::uint64_t req = 1;
            std::uint8_t more = 1;
            while (more != 0) {
                for (const Invocation& inv : round) {
                    invoke(inv, req++);
                    if (r == 0) meter.add(1, inv.len * sizeof(std::uint64_t));
                }
                if (r == 0) {
                    window_ops += kRound;
                    more = host_ns() < deadline ? 1 : 0;
                    // Client 1 waits in the bcast meanwhile, so the whole
                    // process is idle.
                    if (more != 0) meter.idle_gap();
                }
                comm.bcast_bytes(&more, 1, 0);
            }
            if (r == 0) meter.stop();

            if (Tracer::get().on() && r == 0) {
                corba::ObjectRef ref = orb.resolve(plain);
                for (int k = 0; k < kRungRounds; ++k)
                    for (const Invocation& inv : round) {
                        // One member's slice, as a plain sequence<ulonglong>.
                        const std::size_t half = inv.len / kMembers;
                        corba::cdr::Encoder enc(true);
                        enc.put_seq_shared<std::uint64_t>(
                            util::Segment(inv.local[0], 0, half * sizeof(std::uint64_t)), half);
                        Scope s("gridccm.member_call");
                        (void)ref.invoke("sum", enc.take());
                    }
                for (int k = 0; k < kPlanRepeats; ++k)
                    for (const Invocation& inv : round) {
                        Scope s("gridccm.plan");
                        (void)gridccm::compute_plan(Distribution::block_cyclic(kGrain), kClients,
                                                    Distribution::block(), kMembers, inv.len);
                    }
            }
            comm.barrier();
            if (r == 0) proc.grid().register_service("padbench/redist/done", proc.id());
        });
    }
    grid.join_all();

    res.attempted = invocations;
    res.check(bad_blocks.load() == 0,
              std::to_string(bad_blocks.load()) +
                  " result blocks do not hold each member's checksum where expected");
    res.check(returned_total.load() == expected_total,
              "the members' checksums do not sum to the closed form");
    for (const Invocation& inv : round)
        res.check(checks::plan_covers(gridccm::compute_plan(Distribution::block_cyclic(kGrain),
                                                            kClients, Distribution::block(),
                                                            kMembers, inv.len),
                                      inv.len, kGrain),
                  "compute_plan fragments do not cover [0, " + std::to_string(inv.len) +
                      ") exactly once");

    res.standard_e2e(meter, setup_end);
    if (a.trace) {
        res.layer_from_span("gridccm.invoke_ns", "gridccm.invoke");
        res.layer_from_span("gridccm.member_call_ns", "gridccm.member_call");
        res.layer_from_span("gridccm.plan_ns", "gridccm.plan");
        res.layer_from_span("mpi.barrier_ns", "mpi.barrier");
        const auto pc = gridccm::plan_cache_stats();
        res.layer("gridccm.plan_cache_hit_ratio",
                  static_cast<double>(pc.hits) /
                      static_cast<double>(std::max<std::uint64_t>(pc.hits + pc.misses, 1)),
                  "ratio");
        res.layer("ccm.deploy_ns", static_cast<double>(deploy_ns), "ns");
        res.layer("ccm.teardown_ns", static_cast<double>(teardown_ns), "ns");
        res.layer("virt.invoke_us",
                  to_usec(virt_sum) /
                      static_cast<double>(std::max<std::uint64_t>(window_ops, 1)),
                  "us");
    }
    return res;
}

} // namespace padbench
