/// \file nic_share.cpp
/// Workload `nic-share`: the paper's sharing scenario. A PadMPI send_msg
/// stream and a CORBA oneway stream run concurrently from one Myrinet node
/// to another through PadicoTM's arbitration, one sender thread each, with
/// sizes drawn log-uniformly from 64 B to 1 MiB. Each flow runs at most
/// kWindow messages ahead of its receiver, enforced by credit messages, so
/// memory stays bounded whatever the thread schedule. Bulk one-way traffic
/// loads fabric reservation, Madeleine and the PadicoTM demux; request
/// dispatch does almost nothing.

#include <algorithm>
#include <array>
#include <thread>

#include "corba/orb.hpp"
#include "mpi/mpi.hpp"
#include "osal/sync.hpp"
#include "padbench/bench.hpp"
#include "padbench/checks.hpp"
#include "padbench/rungs.hpp"

namespace padbench {

using namespace padico;

namespace {

constexpr std::size_t kRound = 64; ///< messages per round of one flow
constexpr std::size_t kMinSize = 64;
constexpr std::size_t kMaxSize = 1 << 20;
constexpr std::size_t kPoolBytes = 2 << 20;
constexpr std::size_t kWindow = 16; ///< messages a flow may run ahead
constexpr std::size_t kGrant = kWindow / 2; ///< messages one credit frees
constexpr std::size_t kMeterSlice = 512; ///< deliveries per rate sample
constexpr int kDataTag = 1;
constexpr int kCreditTag = 2;
constexpr int kRungRounds = 8;

enum Flow { kMpi = 0, kCorba = 1 };

/// Prepended to every message of both flows.
struct Header {
    std::uint32_t flow = 0;
    std::uint32_t end = 0; ///< 1: end-of-stream marker, no payload
    std::uint64_t seq = 0;
    std::uint64_t size = 0;
    std::uint64_t sum = 0; ///< checksum the sender computed
};

struct Msg {
    std::size_t off = 0;
    std::size_t size = 0;
    std::uint64_t sum = 0;
};

util::Message frame(const Header& h, util::Message payload) {
    util::Message m(util::Segment(util::make_buf(&h, sizeof h)));
    m.append(payload);
    return m;
}

/// Receive side of one flow: checks every arrival and grants credits.
class FlowSink {
public:
    /// Returns false on the end marker.
    bool on_message(const util::Message& m, std::uint64_t* mismatches, Meter& meter) {
        Header h;
        if (m.size() < sizeof h) {
            ++*mismatches;
            ++delivered_;
            return true;
        }
        m.copy_out(0, &h, sizeof h);
        if (h.end != 0) return false;
        ++delivered_;
        const util::Message payload = m.slice(sizeof h, m.size() - sizeof h);
        if (payload.size() != h.size || !order_.accept(h.seq, h.sum, checksum(payload)))
            ++*mismatches;
        bytes_ += payload.size();
        meter.add(1, payload.size());
        return true;
    }
    /// True when the receiver owes the sender a credit.
    bool credit_due() const { return delivered_ % kGrant == 0; }
    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t bytes() const { return bytes_; }

private:
    checks::FlowOrder order_;
    std::uint64_t delivered_ = 0;
    std::uint64_t bytes_ = 0;
};

/// Receiving servant of the CORBA flow; credits go back over an MPI
/// communicator of its own.
class PushSink : public corba::Servant {
public:
    std::string interface() const override { return "IDL:padbench/Sink:1.0"; }
    void dispatch(const std::string& op, corba::cdr::Decoder& in,
                  corba::cdr::Encoder&) override {
        if (op != "push") throw RemoteError("BAD_OPERATION");
        const util::Message m = in.get_bytes_msg(in.remaining());
        if (!sink.on_message(m, &mismatches, *meter)) {
            done.set();
            return;
        }
        if (port != nullptr) high_water = std::max(high_water, port->pending());
        if (sink.credit_due()) credit->send_msg(util::Message(), 0, kCreditTag);
    }

    FlowSink sink;
    std::uint64_t mismatches = 0;
    std::size_t high_water = 0;
    mpi::Comm* credit = nullptr;
    fabric::Port* port = nullptr;
    Meter* meter = nullptr;
    osal::Event done;
};

} // namespace

Result run_nic_share(const Args& a) {
    Result res;
    const PayloadPool pool(stream_seed(a.seed, 11), kPoolBytes, false);
    std::array<std::vector<Msg>, 2> rounds;
    {
        Rng rng(stream_seed(a.seed, 10));
        for (auto& r : rounds) {
            r.resize(kRound);
            const auto sizes = rng.log_uniform_sizes(kRound, kMinSize, kMaxSize);
            for (std::size_t i = 0; i < kRound; ++i) {
                Msg& m = r[i];
                m.size = sizes[i];
                m.off = rng.below(kPoolBytes - m.size + 1);
                m.sum = checksum(pool.data() + m.off, m.size);
            }
        }
    }

    fabric::Grid grid;
    const auto nodes = testbed(grid, 2);
    fabric::NetworkSegment& myri = grid.segment("myri0");

    osal::Event receiver_up;
    corba::IOR sink_ior;
    Meter meter(kMeterSlice);
    std::uint64_t setup_end = 0;
    std::array<std::uint64_t, 2> sent_msgs{}, sent_bytes{}, window_bytes{};
    std::array<std::uint64_t, 2> got_msgs{}, got_bytes{};
    std::uint64_t mismatches = 0;
    SimTime v_start = 0, v_end = 0;
    std::size_t rx_high_water = 0;
    ptm::TrafficCounters sender_stats;

    grid.spawn(*nodes[1], [&](fabric::Process& proc) {
        ptm::Runtime rt(proc);
        corba::Orb orb(rt, corba::profile_omniorb4());
        auto push = std::make_shared<PushSink>();
        push->port = rt.engine().port_on(myri);
        push->meter = &meter;
        orb.serve("padbench-sink");
        sink_ior = orb.activate(push);
        proc.grid().register_service("padbench/share/1", proc.id());
        const fabric::ProcessId sender = proc.grid().wait_service("padbench/share/0");
        auto world = mpi::World::create(rt, "padbench-share", {sender, proc.id()});
        mpi::Comm& comm = world->world();
        mpi::Comm credit = comm.dup();
        push->credit = &credit;
        receiver_up.set();

        FlowSink sink;
        std::uint64_t bad = 0;
        while (true) {
            util::Message m;
            {
                Scope s("mpi.recv");
                m = comm.recv_msg(0, kDataTag);
            }
            if (!sink.on_message(m, &bad, meter)) break;
            if (push->port != nullptr)
                rx_high_water = std::max(rx_high_water, push->port->pending());
            if (sink.credit_due()) comm.send_msg(util::Message(), 0, kCreditTag);
        }
        push->done.wait();
        meter.stop();
        v_end = proc.now();
        got_msgs = {sink.delivered(), push->sink.delivered()};
        got_bytes = {sink.bytes(), push->sink.bytes()};
        mismatches = bad + push->mismatches;
        rx_high_water = std::max(rx_high_water, push->high_water);
        // The sender stays up until here: credits still in flight must
        // find its port open.
        proc.grid().register_service("padbench/share/done", proc.id());
        orb.shutdown();
    });

    grid.spawn(*nodes[0], [&](fabric::Process& proc) {
        ptm::Runtime rt(proc);
        corba::Orb orb(rt, corba::profile_omniorb4());
        proc.grid().register_service("padbench/share/0", proc.id());
        const fabric::ProcessId receiver = proc.grid().wait_service("padbench/share/1");
        auto world = mpi::World::create(rt, "padbench-share", {proc.id(), receiver});
        mpi::Comm& comm = world->world();
        mpi::Comm credit = comm.dup();
        receiver_up.wait();
        corba::ObjectRef ref = orb.resolve(sink_ior);

        osal::Event go;
        std::atomic<int> warmed{0};
        osal::Event all_warm;
        std::uint64_t deadline = 0;

        auto flow = [&](int f) {
            fabric::Process::bind_to_thread(&proc);
            mpi::Comm& credits = f == kMpi ? comm : credit;
            const auto& msgs = rounds[static_cast<std::size_t>(f)];
            std::uint64_t seq = 0, credited = 0;
            auto send = [&](util::Message m) {
                if (f == kMpi) {
                    Scope s("mpi.send", seq);
                    comm.send_msg(std::move(m), 1, kDataTag);
                } else {
                    Scope s("corba.oneway", seq);
                    ref.oneway("push", std::move(m));
                }
            };
            auto send_round = [&] {
                for (const Msg& m : msgs) {
                    if (seq - credited >= kWindow) {
                        (void)credits.recv_msg(1, kCreditTag);
                        credited += kGrant;
                    }
                    send(frame(Header{static_cast<std::uint32_t>(f), 0, seq, m.size, m.sum},
                               pool.slice(m.off, m.size)));
                    ++seq;
                    sent_bytes[static_cast<std::size_t>(f)] += m.size;
                }
            };
            send_round(); // warm-up
            if (warmed.fetch_add(1) == 1) all_warm.set();
            go.wait();
            const std::uint64_t bytes0 = sent_bytes[static_cast<std::size_t>(f)];
            do {
                send_round();
            } while (host_ns() < deadline);
            window_bytes[static_cast<std::size_t>(f)] = sent_bytes[static_cast<std::size_t>(f)] - bytes0;
            sent_msgs[static_cast<std::size_t>(f)] = seq;
            send(frame(Header{static_cast<std::uint32_t>(f), 1, seq, 0, 0}, util::Message()));
        };

        std::thread mpi_sender(flow, kMpi);
        std::thread corba_sender(flow, kCorba);
        all_warm.wait();
        setup_end = host_ns();
        deadline = setup_end + static_cast<std::uint64_t>(a.seconds * 1e9);
        v_start = proc.now();
        meter.start();
        go.set();
        mpi_sender.join();
        corba_sender.join();
        sender_stats = rt.stats();
        proc.grid().wait_service("padbench/share/done");
    });

    grid.join_all();

    const std::uint64_t payload = window_bytes[0] + window_bytes[1];
    res.attempted = sent_msgs[0] + sent_msgs[1];
    res.check(mismatches == 0, std::to_string(mismatches) +
                                   " messages arrived out of order, twice or corrupted");
    for (int f = 0; f < 2; ++f) {
        const auto i = static_cast<std::size_t>(f);
        const char* name = f == kMpi ? "mpi" : "corba";
        res.check(got_msgs[i] == sent_msgs[i],
                  std::string(name) + " flow: " + std::to_string(got_msgs[i]) +
                      " messages received of " + std::to_string(sent_msgs[i]) + " sent");
        res.check(checks::totals_equal(sent_bytes[i], got_bytes[i]),
                  std::string(name) + " flow: receiver byte total differs from the sender's");
    }
    const std::uint64_t seg_bytes = sender_stats.by_segment["myri0"].bytes;
    res.check(checks::segment_covers(seg_bytes, sent_bytes[0] + sent_bytes[1]),
              "myri0 carried fewer bytes than the payload");
    res.check(checks::aggregate_within(payload, v_start, v_end, myri.params().bandwidth_mb),
              "aggregate virtual bandwidth exceeds the NIC capacity");

    res.standard_e2e(meter, setup_end);
    if (a.trace) {
        std::vector<std::size_t> sizes;
        for (const auto& r : rounds)
            for (const Msg& m : r) sizes.push_back(m.size);
        rungs::stream(rungs::Layer::kCircuit, sizes, kRungRounds, "padicotm.circuit_send", kWindow, a.seed);
        rungs::stream(rungs::Layer::kMadeleine, sizes, kRungRounds, "madeleine.send", kWindow, a.seed);
        rungs::stream(rungs::Layer::kPort, sizes, kRungRounds, "fabric.port_send", kWindow, a.seed);
        res.layer_from_span("fabric.port_send_ns", "fabric.port_send");
        res.layer_from_span("madeleine.send_ns", "madeleine.send");
        res.layer_from_span("padicotm.circuit_send_ns", "padicotm.circuit_send");
        res.layer_from_span("mpi.send_ns", "mpi.send");
        res.layer_from_span("mpi.recv_ns", "mpi.recv");
        res.layer_from_span("corba.oneway_ns", "corba.oneway");
        const auto& rc = sender_stats.route_cache;
        res.layer("padicotm.route_cache_hit_ratio",
                  static_cast<double>(rc.hits) /
                      static_cast<double>(std::max<std::uint64_t>(rc.hits + rc.misses, 1)),
                  "ratio");
        const auto& fab = sender_stats.fabric_by_segment["myri0"];
        res.layer("fabric.tx_span_high_water", static_cast<double>(fab.tx_span_high_water), "count");
        res.layer("fabric.pruned_spans_per_msg",
                  static_cast<double>(fab.tx_pruned_spans) /
                      static_cast<double>(std::max<std::uint64_t>(fab.tx_packets, 1)),
                  "count");
        res.layer("fabric.rx_queue_high_water", static_cast<double>(rx_high_water), "count");
        res.layer("virt.aggregate_MBps", mb_per_s(payload, v_end - v_start), "MB/s");
    }
    return res;
}

} // namespace padbench
