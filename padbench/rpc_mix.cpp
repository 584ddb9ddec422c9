/// \file rpc_mix.cpp
/// Workload `rpc-mix`: one client thread in a closed loop of request/reply
/// echo calls over three connections to one server node — CORBA through
/// omniORB 4 (zero-copy marshalling), CORBA through Mico (copying
/// marshalling) and SOAP — with payload sizes drawn log-uniformly from
/// 32 B to 64 KiB. One message is in flight at a time, so per-call
/// marshalling, dispatch, VLink reassembly and thread handoffs dominate.

#include <array>
#include <span>

#include "corba/orb.hpp"
#include "osal/sync.hpp"
#include "padbench/bench.hpp"
#include "padbench/checks.hpp"
#include "padbench/rungs.hpp"
#include "soap/soap.hpp"

namespace padbench {

using namespace padico;

namespace {

constexpr std::size_t kRound = 96; ///< calls per round, 32 per connection
constexpr std::size_t kMinSize = 32;
constexpr std::size_t kMaxSize = 64 << 10;
constexpr std::size_t kPoolBytes = 1 << 20;
constexpr std::size_t kProbeCalls = 8;   ///< small calls per CORBA profile
constexpr std::size_t kLargeCall = 16 << 10;
constexpr int kRungRounds = 20;

enum Conn { kOmni = 0, kMico = 1, kSoap = 2 };
constexpr std::array<const char*, 3> kConnName = {"omniORB4", "Mico", "SOAP"};
constexpr std::array<double, 2> kPaperHalfRttUs = {20.0, 62.0}; // paper §4.4

struct Call {
    int conn = 0;
    std::size_t off = 0;
    std::size_t size = 0;
};

/// sequence<octet> echo; replies with the strategy of the serving ORB.
class EchoServant : public corba::Servant {
public:
    std::string interface() const override { return "IDL:padbench/Echo:1.0"; }
    void dispatch(const std::string& op, corba::cdr::Decoder& in,
                  corba::cdr::Encoder& out) override {
        if (op != "echo") throw RemoteError("BAD_OPERATION");
        std::size_t n = 0;
        util::Message v = in.get_seq_msg<std::uint8_t>(&n);
        if (out.zero_copy()) {
            out.put_u32(static_cast<std::uint32_t>(n));
            out.put_message(v);
        } else {
            const util::ByteBuf flat = v.gather();
            out.put_seq(std::span<const std::uint8_t>(flat.data(), flat.size()));
        }
    }
};

struct PerConn {
    std::uint64_t calls = 0;
    SimTime virt_sum = 0;
};

} // namespace

Result run_rpc_mix(const Args& a) {
    Result res;
    const PayloadPool bin(stream_seed(a.seed, 2), kPoolBytes, false);
    const PayloadPool txt(stream_seed(a.seed, 3), kPoolBytes, true);
    std::vector<Call> round(kRound);
    {
        Rng rng(stream_seed(a.seed, 1));
        std::array<std::vector<std::size_t>, 3> sizes;
        for (auto& s : sizes) s = rng.log_uniform_sizes(kRound / 3, kMinSize, kMaxSize);
        for (std::size_t i = 0; i < kRound; ++i) {
            Call& c = round[i];
            c.conn = static_cast<int>(i % 3);
            c.size = sizes[i % 3][i / 3];
            c.off = rng.below(kPoolBytes - c.size + 1);
        }
    }

    fabric::Grid grid;
    const auto nodes = testbed(grid, 2);

    osal::Event server_up, client_done;
    corba::IOR iors[2];
    std::uint64_t server_frames = 0;

    Meter meter(kRound);
    std::uint64_t setup_end = 0;
    std::uint64_t calls = 0, mismatches = 0, over_link = 0;
    std::array<PerConn, 3> per_conn{};
    double probe_half_rtt[2] = {0, 0};
    std::size_t rx_high_water = 0;
    ptm::TrafficCounters client_stats;

    grid.spawn(*nodes[0], [&](fabric::Process& proc) {
        ptm::Runtime rt(proc);
        corba::Orb omni(rt, corba::profile_omniorb4());
        corba::Orb mico(rt, corba::profile_mico());
        soap::SoapServer soap(rt, "padbench-soap");
        soap.bind("echo", [](const soap::Params& p) { return p; });
        omni.serve("padbench-omni");
        mico.serve("padbench-mico");
        iors[kOmni] = omni.activate(std::make_shared<EchoServant>());
        iors[kMico] = mico.activate(std::make_shared<EchoServant>());
        server_up.set();
        client_done.wait();
        for (const auto& [proto, in] : rt.stats().ingress_by_protocol)
            server_frames += in.frames;
        soap.shutdown();
        mico.shutdown();
        omni.shutdown();
    });

    grid.spawn(*nodes[1], [&](fabric::Process& proc) {
        ptm::Runtime rt(proc);
        corba::Orb omni(rt, corba::profile_omniorb4());
        corba::Orb mico(rt, corba::profile_mico());
        server_up.wait();
        corba::Orb* orbs[2] = {&omni, &mico};
        corba::ObjectRef refs[2] = {omni.resolve(iors[kOmni]), mico.resolve(iors[kMico])};
        soap::SoapClient soap(rt, "padbench-soap");
        fabric::Port* port = rt.engine().port_on(grid.segment("myri0"));
        const double link_mb = grid.segment("myri0").params().bandwidth_mb;

        // One call; returns its virtual round-trip time.
        auto call = [&](const Call& c, std::uint64_t req) -> SimTime {
            Scope op("op", req);
            const SimTime v0 = proc.now();
            bool ok = false;
            if (c.conn == kSoap) {
                soap::Params reply;
                {
                    Scope s("soap.call", req);
                    reply = soap.call("echo", {{"data", txt.str(c.off, c.size)}});
                }
                ok = checks::echo_equal(reply["data"], txt.data() + c.off, c.size);
            } else {
                const bool zc = orbs[c.conn]->profile().zero_copy;
                const std::uint8_t* want = bin.data() + c.off;
                util::Message args;
                {
                    Scope s("corba.marshal", req);
                    corba::cdr::Encoder enc(zc);
                    if (zc) {
                        enc.put_u32(static_cast<std::uint32_t>(c.size));
                        enc.put_message(bin.slice(c.off, c.size));
                    } else {
                        enc.put_seq(std::span<const std::uint8_t>(want, c.size));
                    }
                    args = enc.take();
                }
                util::Message reply;
                {
                    Scope s("corba.invoke", req);
                    reply = refs[c.conn].invoke("echo", std::move(args));
                }
                if (zc) {
                    util::Message v;
                    {
                        Scope s("corba.unmarshal", req);
                        corba::cdr::Decoder dec(std::move(reply));
                        v = dec.get_seq_msg<std::uint8_t>();
                    }
                    ok = checks::echo_equal(v, want, c.size);
                } else {
                    std::vector<std::uint8_t> v;
                    {
                        Scope s("corba.unmarshal", req);
                        corba::cdr::Decoder dec(std::move(reply));
                        v = dec.get_seq<std::uint8_t>();
                    }
                    ok = checks::echo_equal(v, want, c.size);
                }
            }
            const SimTime rtt = proc.now() - v0;
            ++calls;
            if (!ok) ++mismatches;
            if (c.size >= kLargeCall &&
                !checks::within_link(c.size, rtt, link_mb))
                ++over_link;
            if (port != nullptr) rx_high_water = std::max(rx_high_water, port->pending());
            return rtt;
        };

        for (const Call& c : round) (void)call(c, 0); // warm-up round
        setup_end = host_ns();

        const std::uint64_t deadline =
            setup_end + static_cast<std::uint64_t>(a.seconds * 1e9);
        meter.start();
        std::uint64_t req = 1;
        do {
            for (const Call& c : round) {
                const SimTime v = call(c, req++);
                per_conn[static_cast<std::size_t>(c.conn)].calls += 1;
                per_conn[static_cast<std::size_t>(c.conn)].virt_sum += v;
                meter.add(1, c.size);
            }
        } while (host_ns() < deadline);
        meter.stop();

        // Small-call probes for the paper §4.4 latency check.
        for (int p = 0; p < 2; ++p) {
            SimTime sum = 0;
            for (std::size_t i = 0; i < kProbeCalls; ++i)
                sum += call(Call{p, i * 8, kMinSize}, 0);
            probe_half_rtt[p] = to_usec(sum) / (2.0 * kProbeCalls);
        }
        client_stats = rt.stats();
        client_done.set();
    });
    grid.join_all();

    res.attempted = calls;
    res.check(mismatches == 0,
              std::to_string(mismatches) + " echo replies differ from their request");
    res.check(checks::frames_equal(server_frames, calls),
              "server ingress frames " + std::to_string(server_frames) +
                  " != calls made " + std::to_string(calls));
    for (int p = 0; p < 2; ++p)
        res.check(checks::near_paper(probe_half_rtt[p], kPaperHalfRttUs[static_cast<std::size_t>(p)]),
                  std::string(kConnName[static_cast<std::size_t>(p)]) +
                      " small-call half round trip " + std::to_string(probe_half_rtt[p]) +
                      " us is not within 10% of the paper's " +
                      std::to_string(kPaperHalfRttUs[static_cast<std::size_t>(p)]) + " us");
    res.check(over_link == 0, std::to_string(over_link) +
                                  " large calls beat the Myrinet link bandwidth");

    res.standard_e2e(meter, setup_end);

    if (a.trace) {
        const std::vector<std::size_t> sizes = [&] {
            std::vector<std::size_t> s;
            for (const Call& c : round) s.push_back(c.size);
            return s;
        }();
        rungs::echo(rungs::Layer::kVLink, sizes, kRungRounds, "padicotm.vlink_rtt", a.seed);
        rungs::echo(rungs::Layer::kPort, sizes, kRungRounds, "fabric.port_rtt", a.seed);
        res.layer_from_span("fabric.port_rtt_ns", "fabric.port_rtt");
        res.layer_from_span("padicotm.vlink_rtt_ns", "padicotm.vlink_rtt");
        res.layer_from_span("corba.marshal_ns", "corba.marshal");
        res.layer_from_span("corba.unmarshal_ns", "corba.unmarshal");
        res.layer_from_span("corba.invoke_ns", "corba.invoke");
        res.layer_from_span("soap.call_ns", "soap.call");
        const auto& rc = client_stats.route_cache;
        res.layer("padicotm.route_cache_hit_ratio",
                  static_cast<double>(rc.hits) /
                      static_cast<double>(std::max<std::uint64_t>(rc.hits + rc.misses, 1)),
                  "ratio");
        const auto& fab = client_stats.fabric_by_segment["myri0"];
        res.layer("fabric.tx_span_high_water", static_cast<double>(fab.tx_span_high_water), "count");
        res.layer("fabric.pruned_spans_per_msg",
                  static_cast<double>(fab.tx_pruned_spans) /
                      static_cast<double>(std::max<std::uint64_t>(fab.tx_packets, 1)),
                  "count");
        res.layer("fabric.rx_queue_high_water", static_cast<double>(rx_high_water), "count");
        res.layer("svc.frames_per_op",
                  static_cast<double>(server_frames) / static_cast<double>(std::max<std::uint64_t>(calls, 1)),
                  "count");
        for (std::size_t c = 0; c < 3; ++c)
            res.layer(std::string("virt.call_us.") + kConnName[c],
                      to_usec(per_conn[c].virt_sum) /
                          static_cast<double>(std::max<std::uint64_t>(per_conn[c].calls, 1)),
                      "us");
    }
    return res;
}

} // namespace padbench
