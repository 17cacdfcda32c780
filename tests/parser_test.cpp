// Unit tests for the parser module: QASM subset, RevLib .real, round-trips,
// diagnostics.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "parser/diagnostics.h"
#include "parser/io.h"
#include "parser/qasm.h"
#include "parser/real.h"
#include "util/rng.h"

namespace lp = leqa::parser;
namespace lc = leqa::circuit;

// ------------------------------------------------------------------- qasm --

TEST(QasmParser, ParsesDirectivesAndGates) {
    const std::string text = R"(# a comment
.name ham3
.qubits 3
h q0
t q1            // trailing comment
tdg q2
cnot q0, q1
toffoli q0 q1 q2
)";
    const auto circ = lp::parse_qasm(text);
    EXPECT_EQ(circ.name(), "ham3");
    EXPECT_EQ(circ.num_qubits(), 3u);
    ASSERT_EQ(circ.size(), 5u);
    EXPECT_EQ(circ.gate(0).kind(), lc::GateKind::H);
    EXPECT_EQ(circ.gate(3).kind(), lc::GateKind::Cnot);
    EXPECT_EQ(circ.gate(4).kind(), lc::GateKind::Toffoli);
    const auto controls = circ.gate(4).controls();
    const auto targets = circ.gate(4).targets();
    EXPECT_EQ(std::vector<lc::Qubit>(controls.begin(), controls.end()),
              (std::vector<lc::Qubit>{0, 1}));
    EXPECT_EQ(std::vector<lc::Qubit>(targets.begin(), targets.end()),
              (std::vector<lc::Qubit>{2}));
}

TEST(QasmParser, NamedQubitDeclarations) {
    const std::string text = R"(qubit alpha
qubit beta
cnot alpha, beta
)";
    const auto circ = lp::parse_qasm(text);
    EXPECT_EQ(circ.num_qubits(), 2u);
    EXPECT_EQ(circ.qubit_name(0), "alpha");
    EXPECT_EQ(circ.gate(0).controls()[0], 0u);
    EXPECT_EQ(circ.gate(0).targets()[0], 1u);
}

TEST(QasmParser, MultiControlledGates) {
    const std::string text = ".qubits 5\ntoffoli q0 q1 q2 q3 q4\nfredkin q0, q1, q2\n";
    const auto circ = lp::parse_qasm(text);
    ASSERT_EQ(circ.size(), 2u);
    EXPECT_EQ(circ.gate(0).controls().size(), 4u);
    EXPECT_EQ(circ.gate(1).kind(), lc::GateKind::Fredkin);
    EXPECT_EQ(circ.gate(1).controls().size(), 1u);
    EXPECT_EQ(circ.gate(1).targets().size(), 2u);
}

TEST(QasmParser, ErrorsCarryLineNumbers) {
    const std::string text = ".qubits 2\ncnot q0, q9\n";
    try {
        (void)lp::parse_qasm(text, "bad.qasm");
        FAIL() << "expected ParseError";
    } catch (const lp::ParseError& e) {
        EXPECT_EQ(e.location().line, 2u);
        EXPECT_EQ(e.location().file, "bad.qasm");
        EXPECT_NE(std::string(e.what()).find("bad.qasm:2"), std::string::npos);
    }
}

TEST(QasmParser, RejectsMalformedInput) {
    EXPECT_THROW((void)lp::parse_qasm(".qubits two\n"), lp::ParseError);
    EXPECT_THROW((void)lp::parse_qasm(".qubits 2\n.qubits 2\n"), lp::ParseError);
    EXPECT_THROW((void)lp::parse_qasm(".bogus 1\n"), lp::ParseError);
    EXPECT_THROW((void)lp::parse_qasm(".qubits 2\nfrobnicate q0\n"), lp::ParseError);
    EXPECT_THROW((void)lp::parse_qasm(".qubits 2\ncnot q0\n"), lp::ParseError);
    EXPECT_THROW((void)lp::parse_qasm(".qubits 2\ncnot q0, q0\n"), lp::ParseError);
    EXPECT_THROW((void)lp::parse_qasm("qubit 0bad\n"), lp::ParseError);
    EXPECT_THROW((void)lp::parse_qasm("qubit a\nqubit a\n"), lp::ParseError);
}

TEST(QasmParser, EmptyCircuitParses) {
    const auto circ = lp::parse_qasm("# nothing here\n");
    EXPECT_EQ(circ.num_qubits(), 0u);
    EXPECT_TRUE(circ.empty());
}

TEST(QasmWriter, RoundTripsDefaultNames) {
    lc::Circuit circ(4, "rt");
    circ.h(0).cnot(0, 1).toffoli(1, 2, 3).tdg(3).fredkin(0, 1, 2).swap(2, 3);
    const std::string text = lp::write_qasm(circ);
    const auto parsed = lp::parse_qasm(text);
    EXPECT_TRUE(circ.same_structure(parsed));
    EXPECT_EQ(parsed.name(), "rt");
}

TEST(QasmWriter, RoundTripsNamedQubitsAndComments) {
    lc::Circuit circ;
    circ.add_qubit("a");
    circ.add_qubit("b");
    circ.add_comment("generator: unit-test");
    circ.cnot(0, 1);
    const std::string text = lp::write_qasm(circ);
    EXPECT_NE(text.find("# generator: unit-test"), std::string::npos);
    const auto parsed = lp::parse_qasm(text);
    EXPECT_TRUE(circ.same_structure(parsed));
    EXPECT_EQ(parsed.qubit_name(0), "a");
}

TEST(QasmRoundTrip, RandomCircuitsProperty) {
    // Property: write(parse(write(c))) is stable and structure-preserving
    // for arbitrary gate mixes.
    leqa::util::Rng rng(20260610);
    for (int trial = 0; trial < 25; ++trial) {
        const std::size_t n = 3 + rng.index(6);
        lc::Circuit circ(n, "prop" + std::to_string(trial));
        const std::size_t gates = 1 + rng.index(40);
        for (std::size_t g = 0; g < gates; ++g) {
            const auto picks = rng.sample_without_replacement(n, 3);
            switch (rng.index(6)) {
                case 0: circ.h(static_cast<lc::Qubit>(picks[0])); break;
                case 1: circ.t(static_cast<lc::Qubit>(picks[0])); break;
                case 2: circ.x(static_cast<lc::Qubit>(picks[0])); break;
                case 3:
                    circ.cnot(static_cast<lc::Qubit>(picks[0]),
                              static_cast<lc::Qubit>(picks[1]));
                    break;
                case 4:
                    circ.toffoli(static_cast<lc::Qubit>(picks[0]),
                                 static_cast<lc::Qubit>(picks[1]),
                                 static_cast<lc::Qubit>(picks[2]));
                    break;
                default:
                    circ.fredkin(static_cast<lc::Qubit>(picks[0]),
                                 static_cast<lc::Qubit>(picks[1]),
                                 static_cast<lc::Qubit>(picks[2]));
                    break;
            }
        }
        const auto parsed = lp::parse_qasm(lp::write_qasm(circ));
        EXPECT_TRUE(circ.same_structure(parsed)) << "trial " << trial;
    }
}

// ------------------------------------------------------------------- real --

TEST(RealParser, ParsesCanonicalFile) {
    const std::string text = R"(# ham3 style file
.version 1.0
.numvars 3
.variables a b c
.inputs a b c
.outputs a b c
.begin
t1 a
t2 a b
t3 a b c
f3 a b c
f2 b c
.end
)";
    const auto circ = lp::parse_real(text);
    EXPECT_EQ(circ.num_qubits(), 3u);
    ASSERT_EQ(circ.size(), 5u);
    EXPECT_EQ(circ.gate(0).kind(), lc::GateKind::X);
    EXPECT_EQ(circ.gate(1).kind(), lc::GateKind::Cnot);
    EXPECT_EQ(circ.gate(2).kind(), lc::GateKind::Toffoli);
    EXPECT_EQ(circ.gate(3).kind(), lc::GateKind::Fredkin);
    EXPECT_EQ(circ.gate(4).kind(), lc::GateKind::Swap);
}

TEST(RealParser, NumvarsWithoutVariablesGetsDefaults) {
    const std::string text = ".numvars 2\n.begin\nt2 x0 x1\n.end\n";
    const auto circ = lp::parse_real(text);
    EXPECT_EQ(circ.num_qubits(), 2u);
    EXPECT_EQ(circ.qubit_name(0), "x0");
}

TEST(RealParser, LargeToffoli) {
    const std::string text =
        ".numvars 5\n.variables a b c d e\n.begin\nt5 a b c d e\n.end\n";
    const auto circ = lp::parse_real(text);
    ASSERT_EQ(circ.size(), 1u);
    EXPECT_EQ(circ.gate(0).kind(), lc::GateKind::Toffoli);
    EXPECT_EQ(circ.gate(0).controls().size(), 4u);
}

TEST(RealParser, Diagnostics) {
    EXPECT_THROW((void)lp::parse_real(".numvars x\n"), lp::ParseError);
    EXPECT_THROW((void)lp::parse_real(".numvars 1\n.variables a b\n"), lp::ParseError);
    EXPECT_THROW((void)lp::parse_real("t1 a\n"), lp::ParseError);            // before .begin
    EXPECT_THROW((void)lp::parse_real(".numvars 1\n.begin\nt1 x0\n"), lp::ParseError); // no .end
    EXPECT_THROW((void)lp::parse_real(".numvars 2\n.begin\nt3 x0 x1\n.end\n"),
                 lp::ParseError); // arity mismatch
    EXPECT_THROW((void)lp::parse_real(".numvars 2\n.begin\ng2 x0 x1\n.end\n"),
                 lp::ParseError); // unknown family
    EXPECT_THROW((void)lp::parse_real(".numvars 2\n.begin\nt2 x0 zz\n.end\n"),
                 lp::ParseError); // unknown variable
}

TEST(RealWriter, RoundTripsClassicalCircuit) {
    lc::Circuit circ(4, "rev");
    circ.x(0).cnot(0, 1).toffoli(0, 1, 2).fredkin(0, 2, 3).swap(1, 3);
    circ.add_gate(lc::make_mcx({0, 1, 2}, 3));
    const std::string text = lp::write_real(circ);
    const auto parsed = lp::parse_real(text);
    EXPECT_TRUE(circ.same_structure(parsed));
}

TEST(RealWriter, RejectsNonClassical) {
    lc::Circuit circ(1);
    circ.h(0);
    EXPECT_THROW((void)lp::write_real(circ), leqa::util::InputError);
}

// --------------------------------------------------------------------- io --

TEST(Io, SaveAndLoadByExtension) {
    lc::Circuit circ(3, "diskrt");
    circ.x(0).cnot(0, 1).toffoli(0, 1, 2);

    const std::string qasm_path = ::testing::TempDir() + "/leqa_io_test.qasm";
    lp::save_netlist(circ, qasm_path);
    const auto from_qasm = lp::load_netlist(qasm_path);
    EXPECT_TRUE(circ.same_structure(from_qasm));

    const std::string real_path = ::testing::TempDir() + "/leqa_io_test.real";
    lp::save_netlist(circ, real_path);
    const auto from_real = lp::load_netlist(real_path);
    EXPECT_TRUE(circ.same_structure(from_real));

    std::remove(qasm_path.c_str());
    std::remove(real_path.c_str());
}

TEST(Io, MissingFileThrows) {
    EXPECT_THROW((void)lp::load_netlist("/nonexistent/path/foo.qasm"),
                 leqa::util::InputError);
}
