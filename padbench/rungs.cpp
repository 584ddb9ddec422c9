#include "padbench/rungs.hpp"

#include <memory>
#include <string>

#include "fabric/grid.hpp"
#include "madeleine/madeleine.hpp"
#include "padbench/bench.hpp"
#include "padicotm/circuit.hpp"
#include "padicotm/vlink.hpp"

namespace padbench::rungs {

using namespace padico;

namespace {

/// One end of a bidirectional message pipe at one layer.
class Pipe {
public:
    virtual ~Pipe() = default;
    virtual void send(util::Message m) = 0;
    virtual util::Message recv() = 0;
};

class PortPipe : public Pipe {
public:
    PortPipe(fabric::Process& p, fabric::NetworkSegment& seg,
             fabric::ProcessId peer)
        : proc_(&p), peer_(peer), ch_(p.grid().channel_id("padbench/rung")),
          port_(p.machine().adapter_on(seg)->open(p, "padbench-raw")) {}
    void send(util::Message m) override {
        auto& clk = proc_->clock();
        clk.set(port_->send(peer_, ch_, std::move(m), clk.now()));
    }
    util::Message recv() override {
        auto pkt = port_->recv_from(peer_, ch_);
        PADICO_CHECK(pkt.has_value(), "rung port closed");
        proc_->clock().merge(pkt->deliver_time);
        return std::move(pkt->payload);
    }

private:
    fabric::Process* proc_;
    fabric::ProcessId peer_;
    fabric::ChannelId ch_;
    fabric::PortRef port_;
};

class MadPipe : public Pipe {
public:
    MadPipe(fabric::Process& p, fabric::NetworkSegment& seg,
            fabric::ProcessId peer)
        : ep_(p, seg), peer_(peer), ch_(p.grid().channel_id("padbench/rung")) {}
    void send(util::Message m) override { ep_.send(peer_, ch_, std::move(m)); }
    util::Message recv() override { return ep_.recv(peer_, ch_); }

private:
    mad::Endpoint ep_;
    fabric::ProcessId peer_;
    fabric::ChannelId ch_;
};

class CircuitPipe : public Pipe {
public:
    CircuitPipe(fabric::Process& p, int rank, std::vector<fabric::ProcessId> pids)
        : rt_(p), circuit_(rt_, "padbench-rung", std::move(pids)),
          peer_(1 - rank) {}
    void send(util::Message m) override { circuit_.send(peer_, 0, std::move(m)); }
    util::Message recv() override { return circuit_.recv(peer_, 0); }

private:
    ptm::Runtime rt_;
    ptm::Circuit circuit_;
    int peer_;
};

class VLinkPipe : public Pipe {
public:
    VLinkPipe(fabric::Process& p, int rank) : rt_(p) {
        if (rank == 1) {
            listener_ = std::make_unique<ptm::VLinkListener>(rt_, "padbench-rung");
            p.grid().register_service("padbench/rung/listening", p.id());
            link_ = listener_->accept();
        } else {
            p.grid().wait_service("padbench/rung/listening");
            link_ = ptm::VLink::connect(rt_, "padbench-rung");
        }
    }
    void send(util::Message m) override {
        const std::uint64_t n = m.size();
        util::Message framed(util::Segment(util::make_buf(&n, sizeof n)));
        framed.append(m);
        link_.write(std::move(framed));
    }
    util::Message recv() override {
        std::uint64_t n = 0;
        link_.read_msg(sizeof n).copy_out(0, &n, sizeof n);
        return link_.read_msg(n);
    }

private:
    ptm::Runtime rt_;
    std::unique_ptr<ptm::VLinkListener> listener_;
    ptm::VLink link_;
};

std::unique_ptr<Pipe> make_pipe(Layer layer, fabric::Process& p, int rank,
                                const std::vector<fabric::ProcessId>& pids) {
    fabric::NetworkSegment& myri = p.grid().segment("myri0");
    const fabric::ProcessId peer = pids[static_cast<std::size_t>(1 - rank)];
    switch (layer) {
    case Layer::kPort: return std::make_unique<PortPipe>(p, myri, peer);
    case Layer::kMadeleine: return std::make_unique<MadPipe>(p, myri, peer);
    case Layer::kCircuit: return std::make_unique<CircuitPipe>(p, rank, pids);
    case Layer::kVLink: return std::make_unique<VLinkPipe>(p, rank);
    }
    throw UsageError("bad rung layer");
}

/// Two processes on a two-node Myrinet + Ethernet testbed, each running
/// \p body(pipe, rank) over a pipe of \p layer.
template <typename Body>
void two_nodes(Layer layer, const Body& body) {
    fabric::Grid grid;
    const auto nodes = testbed(grid, 2);
    fabric::run_spmd(grid, nodes, [&](fabric::Process& p, int rank, int) {
        p.grid().register_service("padbench/rung/" + std::to_string(rank), p.id());
        std::vector<fabric::ProcessId> pids;
        for (int r = 0; r < 2; ++r)
            pids.push_back(p.grid().wait_service("padbench/rung/" + std::to_string(r)));
        auto pipe = make_pipe(layer, p, rank, pids);
        body(*pipe, rank);
    });
    grid.join_all();
}

} // namespace

void echo(Layer layer, const std::vector<std::size_t>& sizes, int rounds,
          const char* span, std::uint64_t seed) {
    const PayloadPool pool(seed, 1 << 21, false);
    two_nodes(layer, [&](Pipe& pipe, int rank) {
        for (int r = 0; r < rounds; ++r) {
            for (std::size_t i = 0; i < sizes.size(); ++i) {
                if (rank == 1) {
                    pipe.send(pipe.recv());
                    continue;
                }
                util::Message reply;
                {
                    Scope s(span, i);
                    pipe.send(pool.slice(i * 64, sizes[i]));
                    reply = pipe.recv();
                }
                PADICO_CHECK(reply.size() == sizes[i], "rung echo lost bytes");
            }
        }
    });
}

void stream(Layer layer, const std::vector<std::size_t>& sizes, int rounds,
            const char* span, std::size_t window, std::uint64_t seed) {
    const PayloadPool pool(seed, 1 << 21, false);
    const std::size_t total = sizes.size() * static_cast<std::size_t>(rounds);
    const std::size_t grant = window / 2; // one credit frees this many slots
    two_nodes(layer, [&](Pipe& pipe, int rank) {
        if (rank == 1) {
            for (std::size_t i = 1; i <= total; ++i) {
                (void)pipe.recv();
                if (i % grant == 0 || i == total) pipe.send(util::Message());
            }
            return;
        }
        std::size_t credited = 0;
        for (std::size_t i = 0; i < total; ++i) {
            if (i - credited >= window) {
                (void)pipe.recv();
                credited += grant;
            }
            const std::size_t k = i % sizes.size();
            Scope s(span, i);
            pipe.send(pool.slice(k * 64, sizes[k]));
        }
        while (credited < total) {
            (void)pipe.recv();
            credited += grant;
        }
    });
}

} // namespace padbench::rungs
