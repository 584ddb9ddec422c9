/// \file main.cpp
/// padbench: host-clock benchmark of the Padico simulator.
///
///   padbench --workload <rpc-mix|nic-share|gridccm-redist> --seed <n>
///            --seconds <s> --trace <0|1>
///   padbench --self-test
///
/// The last line of standard output is one JSON object with the keys
/// correct, attempted, failed and metrics: the end-to-end metrics when
/// --trace 0, the per-layer metrics (from the in-memory spans and the
/// ladder legs) when --trace 1. A human-readable summary goes to stderr.

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "padbench/bench.hpp"
#include "util/log.hpp"

namespace {

using namespace padbench;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "padbench: %s\nusage: padbench --workload "
                 "<rpc-mix|nic-share|gridccm-redist> --seed <n> --seconds <s> "
                 "--trace <0|1>\n       padbench --self-test\n",
                 why);
    std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* what) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0') usage(what);
    return static_cast<std::uint64_t>(v);
}

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void print_result(const Result& r, bool trace) {
    std::string out = "{\"correct\": ";
    out += r.violations.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const std::string& name, double v, const std::string& unit) {
        if (!first) out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + json_number(v) +
               ", \"unit\": \"" + unit + "\"}";
    };
    if (trace) {
        std::map<std::string, double> got;
        for (const Metric& m : r.per_layer) got[m.name] = m.value;
        for (const auto& [name, unit] : per_layer_catalog()) {
            const auto it = got.find(name);
            emit(name, it == got.end() ? 0.0 : it->second, unit);
        }
    } else {
        for (const Metric& m : r.end_to_end) emit(m.name, m.value, m.unit);
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int main(int argc, char** argv) {
    Args a;
    bool have_workload = false, have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--self-test") return self_test() == 0 ? 0 : 1;
        if (i + 1 >= argc) usage(("missing value for " + k).c_str());
        const char* v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = parse_u64(v, "bad --seed");
            have_seed = true;
        } else if (k == "--seconds") {
            a.seconds = static_cast<double>(parse_u64(v, "bad --seconds"));
            have_seconds = true;
        } else if (k == "--trace") {
            const std::uint64_t t = parse_u64(v, "bad --trace");
            if (t > 1) usage("--trace takes 0 or 1");
            a.trace = t == 1;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds) usage("missing arguments");
    if (a.seconds < 1 || a.seconds > 120) usage("--seconds must be 1..120");

    // Placement of the simulator's threads across CPUs changes host rates
    // several-fold from run to run (cross-CPU wake-ups); on one CPU they
    // repeat. See README.md, "Noise".
    pin_to_one_cpu();
    padico::log::set_level(padico::log::Level::error);
    if (a.trace) Tracer::get().enable();

    // A simulated process that throws leaves its peers blocked forever;
    // SIGALRM's default action ends the run instead of hanging it.
    ::alarm(static_cast<unsigned>(a.seconds) + 90);

    Result r;
    try {
        if (a.workload == "rpc-mix") {
            r = run_rpc_mix(a);
        } else if (a.workload == "nic-share") {
            r = run_nic_share(a);
        } else if (a.workload == "gridccm-redist") {
            r = run_gridccm_redist(a);
        } else {
            usage(("unknown workload " + a.workload).c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "padbench: %s failed: %s\n", a.workload.c_str(), e.what());
        return 1;
    }

    std::fprintf(stderr, "padbench %s seed=%" PRIu64 " trace=%d: attempted=%" PRIu64
                         " failed=%" PRIu64 " spans=%zu\n",
                 a.workload.c_str(), a.seed, a.trace ? 1 : 0, r.attempted,
                 r.failed, Tracer::get().span_count());
    for (const Metric& m : r.end_to_end)
        std::fprintf(stderr, "  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    for (const Metric& m : r.per_layer)
        std::fprintf(stderr, "  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    for (const std::string& v : r.violations)
        std::fprintf(stderr, "  CHECK FAILED: %s\n", v.c_str());
    if (a.trace) {
        // Next to the binary, i.e. inside the checkout's build tree.
        std::error_code ec;
        const auto dir = std::filesystem::read_symlink("/proc/self/exe", ec).parent_path();
        const std::string path = (dir / ("trace-" + a.workload + "-" +
                                         std::to_string(a.seed) + ".json")).string();
        if (!ec && Tracer::get().write_chrome_json(path))
            std::fprintf(stderr, "  spans written to %s\n", path.c_str());
    }
    print_result(r, a.trace);
    return 0;
}
