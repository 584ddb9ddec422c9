#pragma once
/// \file rungs.hpp
/// Ladder legs of the traced run. Where one benchmark call covers several
/// layers, a rung replays the same seeded size mix one layer lower between
/// two nodes of the same testbed shape; the difference between adjacent
/// rungs is the upper layer's self time.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace padbench::rungs {

/// The layer a rung talks to directly.
enum class Layer {
    kPort,      ///< fabric::Port send/recv_from on the Myrinet NIC
    kMadeleine, ///< mad::Endpoint send/recv
    kCircuit,   ///< ptm::Circuit send/recv (PadicoTM parallel interface)
    kVLink,     ///< ptm::VLink write/read_msg (PadicoTM distributed interface)
};

/// Request/reply leg: rank 0 sends each size and waits for the echo; the
/// span \p span covers one send plus the matching receive.
void echo(Layer layer, const std::vector<std::size_t>& sizes, int rounds,
          const char* span, std::uint64_t seed);

/// One-way leg: rank 0 streams each size at most \p window messages ahead
/// of rank 1 (credit messages); the span \p span covers one send.
void stream(Layer layer, const std::vector<std::size_t>& sizes, int rounds,
            const char* span, std::size_t window, std::uint64_t seed);

} // namespace padbench::rungs
