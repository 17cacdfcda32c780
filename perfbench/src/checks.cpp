#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <tuple>
#include <unordered_map>

#include "util/json_value.h"

namespace perfbench {

bool Checker::expect(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) failures_.push_back(what);
    return ok;
}

double table1_delay_us(FtClass cls) {
    switch (cls) {
    case FtClass::H: return 5440.0;
    case FtClass::T: return 10940.0;
    case FtClass::Pauli: return 5240.0;
    case FtClass::S: return 5240.0;
    case FtClass::Cnot: return 4930.0;
    }
    return 0.0;
}

namespace {

/// Trim blanks, a trailing ';' and '\r' from an operand.
std::string trim_operand(const std::string& token) {
    std::size_t begin = 0;
    while (begin < token.size() && (token[begin] == ' ' || token[begin] == '\t')) ++begin;
    std::size_t end = token.size();
    while (end > begin && (token[end - 1] == ' ' || token[end - 1] == '\t' ||
                           token[end - 1] == '\r' || token[end - 1] == ';')) {
        --end;
    }
    return token.substr(begin, end - begin);
}

} // namespace

FtNetlist read_ft_netlist(const std::string& path, Checker& checker) {
    static const std::map<std::string, FtClass> kClasses = {
        {"h", FtClass::H},     {"t", FtClass::T},     {"tdg", FtClass::T},
        {"x", FtClass::Pauli}, {"y", FtClass::Pauli}, {"z", FtClass::Pauli},
        {"s", FtClass::S},     {"sdg", FtClass::S},   {"cnot", FtClass::Cnot}};
    FtNetlist netlist;
    std::ifstream in(path);
    if (!checker.expect(static_cast<bool>(in), "cannot open FT netlist " + path)) {
        return netlist;
    }
    std::unordered_map<std::string, std::uint32_t> index_of;
    const auto qubit = [&](const std::string& operand, std::uint32_t& out) {
        const std::string name = trim_operand(operand);
        if (name.empty()) return false;
        out = index_of.emplace(name, static_cast<std::uint32_t>(index_of.size())).first->second;
        return true;
    };
    std::string line;
    std::size_t bad_lines = 0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#' || line[0] == '.') continue;
        const std::size_t space = line.find(' ');
        if (space == std::string::npos) {
            ++bad_lines;
            continue;
        }
        const std::string mnemonic = line.substr(0, space);
        const std::string operands = line.substr(space + 1);
        if (mnemonic == "qubit") {
            std::uint32_t ignored = 0;
            if (!qubit(operands, ignored)) ++bad_lines;
            continue;
        }
        const auto cls = kClasses.find(mnemonic);
        FtGate gate;
        bool ok = cls != kClasses.end();
        if (ok) {
            gate.cls = cls->second;
            const std::size_t comma = operands.find(',');
            if (gate.cls == FtClass::Cnot) {
                ok = comma != std::string::npos &&
                     qubit(operands.substr(0, comma), gate.q0) &&
                     qubit(operands.substr(comma + 1), gate.q1);
            } else {
                ok = comma == std::string::npos && qubit(operands, gate.q0);
                gate.q1 = gate.q0;
            }
        }
        if (!ok) {
            ++bad_lines;
            continue;
        }
        netlist.gates.push_back(gate);
    }
    netlist.qubits = static_cast<std::uint32_t>(index_of.size());
    checker.expect(bad_lines == 0, path + ": " + std::to_string(bad_lines) +
                                       " lines are not FT operations");
    return netlist;
}

double eq1_latency_us(const FtNetlist& netlist, const EstimateView& estimate,
                      bool with_routing) {
    std::vector<double> free_at(netlist.qubits, 0.0);
    double latency = 0.0;
    for (const FtGate& g : netlist.gates) {
        double delay = table1_delay_us(g.cls);
        if (with_routing) {
            delay += g.cls == FtClass::Cnot ? estimate.l_cnot_avg_us
                                            : estimate.l_one_qubit_avg_us;
        }
        const double start = std::max(free_at[g.q0], free_at[g.q1]);
        const double end = start + delay;
        free_at[g.q0] = end;
        free_at[g.q1] = end;
        latency = std::max(latency, end);
    }
    return latency;
}

void check_eq1(const FtNetlist& netlist, const EstimateView& estimate,
               const std::string& label, Checker& checker) {
    const double recomputed = eq1_latency_us(netlist, estimate, true);
    const double bound = eq1_latency_us(netlist, estimate, false);
    const double rel = std::abs(estimate.latency_us - recomputed) /
                       std::max(std::abs(recomputed), 1e-300);
    char buffer[256];
    std::snprintf(buffer, sizeof buffer, "%s: D=%.17g but Eq. 1 recomputed %.17g",
                  label.c_str(), estimate.latency_us, recomputed);
    checker.expect(rel <= 1e-9, buffer);
    std::snprintf(buffer, sizeof buffer, "%s: D=%.17g below routing-free bound %.17g",
                  label.c_str(), estimate.latency_us, bound);
    checker.expect(estimate.latency_us >= bound, buffer);
}

void check_forms_identical(const std::vector<double>& latencies,
                           const std::vector<std::size_t>& ft_ops,
                           const std::string& label, Checker& checker) {
    bool same = !latencies.empty();
    for (double d : latencies) same = same && d == latencies.front();
    checker.expect(same, label + ": source forms give different D");
    bool same_ops = !ft_ops.empty();
    for (std::size_t n : ft_ops) same_ops = same_ops && n == ft_ops.front();
    checker.expect(same_ops, label + ": source forms give different FT op counts");
}

void check_table2_ft_ops(const std::string& circuit, std::size_t ft_ops, Checker& checker) {
    // Paper, Table 2: operation counts of the constructive multipliers.
    static const std::map<std::string, std::size_t> kTable2 = {
        {"gf2^16mult", 3885},   {"gf2^18mult", 4911},   {"gf2^19mult", 5469},
        {"gf2^20mult", 6019},   {"gf2^50mult", 37647},  {"gf2^64mult", 61629},
        {"gf2^100mult", 150297}, {"gf2^128mult", 246141}, {"gf2^256mult", 983805}};
    const auto it = kTable2.find(circuit);
    if (it == kTable2.end()) return;
    checker.expect(ft_ops == it->second, circuit + ": " + std::to_string(ft_ops) +
                                             " FT ops, Table 2 says " +
                                             std::to_string(it->second));
}

std::size_t check_monotone(const std::vector<DesignPoint>& points, const std::string& label,
                           Checker& checker) {
    std::map<std::tuple<int, int, int>, std::vector<const DesignPoint*>> groups;
    for (const DesignPoint& p : points) groups[{p.topology, p.width, p.height}].push_back(&p);
    std::size_t violations = 0;
    for (const auto& [geometry, group] : groups) {
        for (const DesignPoint* a : group) {
            for (const DesignPoint* b : group) {
                const bool more_nc = a->v == b->v && b->nc > a->nc;
                const bool more_v = a->nc == b->nc && b->v > a->v;
                if ((more_nc || more_v) && b->latency_us > a->latency_us) ++violations;
            }
        }
    }
    checker.expect(violations == 0, label + ": " + std::to_string(violations) +
                                        " points where latency rises with Nc or v");
    return violations;
}

void check_point_identity(double explored_us, double single_us, const std::string& label,
                          Checker& checker) {
    char buffer[256];
    std::snprintf(buffer, sizeof buffer, "%s: explored %.17g vs single-point %.17g",
                  label.c_str(), explored_us, single_us);
    checker.expect(explored_us == single_us, buffer);
}

void check_response(std::uint64_t expected_id, const std::string& line, Checker& checker) {
    try {
        const leqa::util::JsonValue doc = leqa::util::json_parse(line);
        const leqa::util::JsonValue* id = doc.find("id");
        const bool id_ok = id != nullptr && id->is_number() &&
                           static_cast<std::uint64_t>(id->as_number()) == expected_id;
        checker.expect(id_ok, "response id mismatch, expected " +
                                  std::to_string(expected_id) + ": " + line.substr(0, 200));
        checker.expect(doc.find("error") == nullptr && doc.find("result") != nullptr,
                       "response carries an error: " + line.substr(0, 200));
    } catch (const std::exception& e) {
        checker.expect(false, std::string("response is not JSON (") + e.what() +
                                  "): " + line.substr(0, 200));
    }
}

void check_wire_equal(double served, double in_process, const std::string& label,
                      Checker& checker) {
    char text[64];
    std::snprintf(text, sizeof text, "%.12g", in_process);
    const double rounded = std::strtod(text, nullptr);
    char buffer[256];
    std::snprintf(buffer, sizeof buffer, "%s: served %.17g, in-process %.17g (%s)",
                  label.c_str(), served, in_process, text);
    checker.expect(served == rounded, buffer);
}

void check_optimize(double initial_us, double final_us, const std::string& label,
                    Checker& checker) {
    char buffer[256];
    std::snprintf(buffer, sizeof buffer, "%s: optimize ended at %.17g above its start %.17g",
                  label.c_str(), final_us, initial_us);
    checker.expect(final_us <= initial_us, buffer);
}

void check_completed(std::uint64_t completed, std::uint64_t sent, Checker& checker) {
    checker.expect(completed == sent, "stats reports " + std::to_string(completed) +
                                          " completed jobs, client sent " +
                                          std::to_string(sent));
}

} // namespace perfbench
