/// \file checks.h
/// \brief Output checks, computed apart from the program under test.
///
/// Nothing here compares against a stored copy of an earlier output.  The
/// cold-path checks recompute the paper's Eq. 1 from the FT netlist with
/// this file's own reader and the Table 1 delays; the warm and served
/// checks test properties the method must have (monotonicity in Nc and v,
/// batch/single-point identity, id correlation, annealing never worsening
/// its start point, request accounting).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Delay classes of the FT operation set, with the paper's Table 1 delays.
enum class FtClass : std::uint8_t { H, T, Pauli, S, Cnot };

/// Table 1 delay of an FT class in microseconds.
[[nodiscard]] double table1_delay_us(FtClass cls);

/// An FT netlist as read by this file's own reader: one entry per gate.
struct FtGate {
    FtClass cls = FtClass::H;
    std::uint32_t q0 = 0;
    std::uint32_t q1 = 0; ///< == q0 for one-qubit gates
};
struct FtNetlist {
    std::uint32_t qubits = 0; ///< distinct qubit names seen
    std::vector<FtGate> gates;
};

/// Read an FT QASM netlist ("qubit <name>" declarations, "h/t/tdg/x/y/z/s/sdg
/// <q>" and "cnot <a>, <b>" lines, '#' comments, ".name").  Qubits are
/// numbered in order of first appearance.  Unknown mnemonics are recorded
/// as a failed check.
[[nodiscard]] FtNetlist read_ft_netlist(const std::string& path, Checker& checker);

/// The intermediates of one estimate that Eq. 1 depends on.
struct EstimateView {
    double latency_us = 0.0;
    double l_cnot_avg_us = 0.0;
    double l_one_qubit_avg_us = 0.0;
};

/// Eq. 1 as a longest path over the gate list: each gate starts when all of
/// its qubits are free and lasts d_g plus its routing term (L_CNOT^avg for
/// CNOTs, L_1q^avg otherwise).  With \p with_routing false the routing
/// terms are dropped, giving a lower bound on D.
[[nodiscard]] double eq1_latency_us(const FtNetlist& netlist, const EstimateView& estimate,
                                    bool with_routing);

/// D within 1e-9 relative of the recomputed Eq. 1, and at least the
/// routing-free longest path.
void check_eq1(const FtNetlist& netlist, const EstimateView& estimate,
               const std::string& label, Checker& checker);

/// The three source forms of one circuit at one parameter point give
/// bit-identical D and identical FT op counts.
void check_forms_identical(const std::vector<double>& latencies,
                           const std::vector<std::size_t>& ft_ops,
                           const std::string& label, Checker& checker);

/// FT op counts of the constructive gf2^n multipliers against the paper's
/// Table 2 (other circuits are not checked).
void check_table2_ft_ops(const std::string& circuit, std::size_t ft_ops, Checker& checker);

/// One evaluated design point.
struct DesignPoint {
    int topology = 0;
    int width = 0;
    int height = 0;
    int nc = 0;
    double v = 0.0;
    double latency_us = 0.0;
};

/// At fixed topology and fabric size, latency must not increase as Nc
/// grows (fixed v) or as v grows (fixed Nc).  Returns the violation count.
std::size_t check_monotone(const std::vector<DesignPoint>& points, const std::string& label,
                           Checker& checker);

/// An explored point must be bit-identical to a single-point estimate.
void check_point_identity(double explored_us, double single_us, const std::string& label,
                          Checker& checker);

/// A served response line must carry the request's id and no error.
void check_response(std::uint64_t expected_id, const std::string& line, Checker& checker);

/// A served value must equal the in-process one to the wire's 12
/// significant digits.
void check_wire_equal(double served, double in_process, const std::string& label,
                      Checker& checker);

/// An optimization never ends above its starting latency.
void check_optimize(double initial_us, double final_us, const std::string& label,
                    Checker& checker);

/// The server's completed-job count equals the jobs the client sent.
void check_completed(std::uint64_t completed, std::uint64_t sent, Checker& checker);

} // namespace perfbench
