#include "parser/real.h"

#include <istream>
#include <sstream>

#include "parser/diagnostics.h"
#include "util/strings.h"

namespace leqa::parser {

namespace {

std::string strip_comment(const std::string& line) {
    const auto hash = line.find('#');
    return hash == std::string::npos ? line : line.substr(0, hash);
}

} // namespace

circuit::Circuit parse_real(const std::string& text, const std::string& source_name) {
    std::istringstream in(text);
    return parse_real_stream(in, source_name);
}

circuit::Circuit parse_real_stream(std::istream& in, const std::string& source_name) {
    circuit::Circuit circ;
    SourceLoc loc{source_name, 0};
    std::string raw_line;
    bool in_body = false;
    bool saw_end = false;
    long long declared_vars = -1;

    while (std::getline(in, raw_line)) {
        ++loc.line;
        const std::string line = util::trim(strip_comment(raw_line));
        if (line.empty()) continue;
        const auto fields = util::split_whitespace(line);
        const std::string head = util::to_lower(fields[0]);

        if (head[0] == '.') {
            if (head == ".version") {
                continue; // informational
            } else if (head == ".numvars") {
                if (fields.size() != 2) throw ParseError(loc, ".numvars expects one argument");
                const auto n = util::parse_int(fields[1]);
                if (!n || *n < 0) throw ParseError(loc, ".numvars expects a non-negative integer");
                declared_vars = *n;
            } else if (head == ".variables") {
                if (declared_vars >= 0 &&
                    static_cast<long long>(fields.size()) - 1 != declared_vars) {
                    throw ParseError(loc, ".variables count does not match .numvars");
                }
                for (std::size_t i = 1; i < fields.size(); ++i) {
                    if (!util::is_identifier(fields[i])) {
                        throw ParseError(loc, "invalid variable name '" + fields[i] + "'");
                    }
                    try {
                        circ.add_qubit(fields[i]);
                    } catch (const util::InputError& e) {
                        throw ParseError(loc, e.what());
                    }
                }
            } else if (head == ".inputs" || head == ".outputs" || head == ".constants" ||
                       head == ".garbage" || head == ".inputbus" || head == ".outputbus") {
                continue; // informational
            } else if (head == ".begin") {
                if (circ.num_qubits() == 0 && declared_vars > 0) {
                    // .numvars without .variables: generate default names.
                    for (long long i = 0; i < declared_vars; ++i) {
                        circ.add_qubit("x" + std::to_string(i));
                    }
                }
                in_body = true;
            } else if (head == ".end") {
                saw_end = true;
                break;
            } else {
                throw ParseError(loc, "unknown directive '" + fields[0] + "'");
            }
            continue;
        }

        if (!in_body) throw ParseError(loc, "gate line before .begin");

        // Gate lines: t<N> or f<N> followed by N operands.
        const char family = head[0];
        if (family != 't' && family != 'f') {
            throw ParseError(loc, "unknown gate '" + fields[0] + "' (expected tN or fN)");
        }
        const auto declared_arity = util::parse_int(head.substr(1));
        if (!declared_arity || *declared_arity < 1) {
            throw ParseError(loc, "malformed gate name '" + fields[0] + "'");
        }
        const std::size_t arity = static_cast<std::size_t>(*declared_arity);
        if (fields.size() - 1 != arity) {
            throw ParseError(loc, "gate '" + fields[0] + "' expects " + std::to_string(arity) +
                                      " operands, got " + std::to_string(fields.size() - 1));
        }
        std::vector<circuit::Qubit> operands;
        operands.reserve(arity);
        for (std::size_t i = 1; i < fields.size(); ++i) {
            const auto q = circ.find_qubit(fields[i]);
            if (!q) throw ParseError(loc, "unknown variable '" + fields[i] + "'");
            operands.push_back(*q);
        }

        try {
            if (family == 't') {
                const circuit::Qubit target = operands.back();
                operands.pop_back();
                if (operands.empty()) {
                    circ.add_gate(circuit::make_x(target));
                } else {
                    circ.add_gate(circuit::make_mcx(operands, target));
                }
            } else { // 'f'
                if (arity < 2) throw ParseError(loc, "fN gates need at least 2 operands");
                const circuit::Qubit b = operands.back();
                operands.pop_back();
                const circuit::Qubit a = operands.back();
                operands.pop_back();
                if (operands.empty()) {
                    circ.add_gate(circuit::make_swap(a, b));
                } else {
                    circ.add_gate(circuit::make_mcswap(operands, a, b));
                }
            }
        } catch (const util::InputError& e) {
            throw ParseError(loc, e.what());
        }
    }

    if (in_body && !saw_end) {
        throw ParseError(loc, "missing .end");
    }
    return circ;
}

std::string write_real(const circuit::Circuit& circ) {
    LEQA_REQUIRE(circ.is_classical(),
                 "write_real: only classical reversible circuits (x/cnot/toffoli/"
                 "fredkin/swap) can be written as .real");
    std::ostringstream out;
    for (const auto& comment : circ.comments()) out << "# " << comment << '\n';
    out << ".version 1.0\n";
    out << ".numvars " << circ.num_qubits() << '\n';
    out << ".variables";
    for (circuit::Qubit q = 0; q < circ.num_qubits(); ++q) {
        out << ' ' << circ.qubit_name(q);
    }
    out << "\n.begin\n";
    for (const circuit::Gate& g : circ.gates()) {
        switch (g.kind()) {
            case circuit::GateKind::X:
                out << "t1 " << circ.qubit_name(g.targets()[0]) << '\n';
                break;
            case circuit::GateKind::Cnot:
                out << "t2 " << circ.qubit_name(g.controls()[0]) << ' '
                    << circ.qubit_name(g.targets()[0]) << '\n';
                break;
            case circuit::GateKind::Toffoli: {
                out << 't' << (g.controls().size() + 1);
                for (const circuit::Qubit q : g.controls()) out << ' ' << circ.qubit_name(q);
                out << ' ' << circ.qubit_name(g.targets()[0]) << '\n';
                break;
            }
            case circuit::GateKind::Swap:
                out << "f2 " << circ.qubit_name(g.targets()[0]) << ' '
                    << circ.qubit_name(g.targets()[1]) << '\n';
                break;
            case circuit::GateKind::Fredkin: {
                out << 'f' << (g.controls().size() + 2);
                for (const circuit::Qubit q : g.controls()) out << ' ' << circ.qubit_name(q);
                out << ' ' << circ.qubit_name(g.targets()[0]) << ' '
                    << circ.qubit_name(g.targets()[1]) << '\n';
                break;
            }
            default:
                throw util::InputError("write_real: gate not representable: " + g.to_string());
        }
    }
    out << ".end\n";
    return out.str();
}

} // namespace leqa::parser
