#include "parser/openqasm.h"

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <utility>

#include "parser/diagnostics.h"
#include "util/strings.h"

namespace leqa::parser {

namespace {

/// A ';'-terminated statement with the line it started on.  Comments are
/// dropped and newlines become spaces, so a statement may span lines.
struct Statement {
    std::string text;
    std::size_t line = 0;
};

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

std::vector<Statement> split_statements(std::string_view text,
                                        const std::string& source_name) {
    std::vector<Statement> statements;
    std::string current;
    bool current_blank = true; // `current` holds only whitespace so far
    std::size_t line = 1;
    std::size_t statement_line = 1;
    bool in_comment = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '\n') {
            ++line;
            in_comment = false;
            current += ' ';
            continue;
        }
        if (in_comment) continue;
        if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
            in_comment = true;
            ++i;
            continue;
        }
        if (c == ';') {
            if (!current_blank) statements.push_back({util::trim(current), statement_line});
            current.clear();
            current_blank = true;
            statement_line = line;
            continue;
        }
        if (current_blank) statement_line = line;
        current_blank = current_blank && is_space(c);
        current += c;
    }
    if (!current_blank) {
        throw ParseError({source_name, statement_line},
                         "statement not terminated by ';': '" + util::trim(current) + "'");
    }
    return statements;
}

/// Operand: reg[index].
struct Operand {
    std::string_view reg;
    long long index = 0;
};

Operand parse_operand(std::string_view token, const SourceLoc& loc) {
    const auto open = token.find('[');
    const auto close = token.find(']');
    if (open == std::string_view::npos || close == std::string_view::npos || close < open ||
        close + 1 != token.size()) {
        throw ParseError(loc, "expected operand of the form reg[i], got '" +
                                  std::string(token) + "'");
    }
    Operand operand;
    operand.reg = util::trim_view(token.substr(0, open));
    const auto index = util::parse_int(token.substr(open + 1, close - open - 1));
    if (operand.reg.empty() || !index || *index < 0) {
        throw ParseError(loc, "malformed operand '" + std::string(token) + "'");
    }
    operand.index = *index;
    return operand;
}

/// True if \p head (any case) is one of \p words.
bool is_one_of(std::string_view head, std::initializer_list<std::string_view> words) {
    return std::any_of(words.begin(), words.end(),
                       [&](std::string_view word) { return util::iequals(head, word); });
}

/// Gate mnemonics of the subset, matched case-insensitively.
std::optional<circuit::GateKind> find_openqasm_gate(std::string_view head) {
    static constexpr std::pair<std::string_view, circuit::GateKind> kGates[] = {
        {"x", circuit::GateKind::X},       {"y", circuit::GateKind::Y},
        {"z", circuit::GateKind::Z},       {"h", circuit::GateKind::H},
        {"s", circuit::GateKind::S},       {"sdg", circuit::GateKind::Sdg},
        {"t", circuit::GateKind::T},       {"tdg", circuit::GateKind::Tdg},
        {"cx", circuit::GateKind::Cnot},   {"cnot", circuit::GateKind::Cnot},
        {"ccx", circuit::GateKind::Toffoli},
        {"swap", circuit::GateKind::Swap}, {"cswap", circuit::GateKind::Fredkin},
    };
    for (const auto& [name, kind] : kGates) {
        if (util::iequals(head, name)) return kind;
    }
    return std::nullopt;
}

} // namespace

bool looks_like_openqasm(std::string_view text) {
    // Only the first non-blank line matters: scan views up to it.
    for (std::size_t pos = 0; pos < text.size();) {
        const std::size_t newline = std::min(text.find('\n', pos), text.size());
        std::string_view line = text.substr(pos, newline - pos);
        pos = newline + 1;
        line = util::trim_view(line.substr(0, line.find("//")));
        if (line.empty()) continue;
        return util::iequals(line.substr(0, 8), "openqasm");
    }
    return false;
}

circuit::Circuit parse_openqasm(std::string_view text, const std::string& source_name) {
    circuit::Circuit circ;
    // name -> (base qubit, size)
    std::map<std::string, std::pair<circuit::Qubit, long long>, std::less<>> registers;
    bool saw_header = false;

    const auto resolve = [&](std::string_view token, const SourceLoc& loc) -> circuit::Qubit {
        const Operand operand = parse_operand(token, loc);
        const auto it = registers.find(operand.reg);
        if (it == registers.end()) {
            throw ParseError(loc, "unknown qreg '" + std::string(operand.reg) + "'");
        }
        if (operand.index >= it->second.second) {
            throw ParseError(loc,
                             "index out of range for qreg '" + std::string(operand.reg) + "'");
        }
        return it->second.first + static_cast<circuit::Qubit>(operand.index);
    };

    std::vector<circuit::Qubit> qubits; // reused by every gate statement
    for (const Statement& statement : split_statements(text, source_name)) {
        const SourceLoc loc{source_name, statement.line};
        std::string_view rest = statement.text;
        const std::string_view head = util::next_field(rest);

        if (util::iequals(head, "openqasm")) {
            saw_header = true;
            continue;
        }
        if (!saw_header) throw ParseError(loc, "missing OPENQASM 2.0 declaration");
        if (is_one_of(head, {"include", "creg", "barrier", "id"})) {
            continue; // accepted, irrelevant to the latency model
        }
        if (is_one_of(head, {"measure", "reset", "if", "gate", "u", "u1", "u2", "u3", "rx",
                             "ry", "rz", "cu1"})) {
            throw ParseError(loc, "unsupported OpenQASM construct '" + std::string(head) +
                                      "' (LEQA consumes FT Clifford+T netlists)");
        }
        if (util::iequals(head, "qreg")) {
            const std::string_view declaration = util::next_field(rest);
            if (declaration.empty() || !util::next_field(rest).empty()) {
                throw ParseError(loc, "qreg expects one declaration");
            }
            const Operand decl = parse_operand(declaration, loc);
            if (registers.find(decl.reg) != registers.end()) {
                throw ParseError(loc, "duplicate qreg '" + std::string(decl.reg) + "'");
            }
            if (decl.index <= 0) {
                throw ParseError(loc, "qreg size must be positive");
            }
            const auto base = static_cast<circuit::Qubit>(circ.num_qubits());
            for (long long i = 0; i < decl.index; ++i) {
                circ.add_qubit(std::string(decl.reg) + "[" + std::to_string(i) + "]");
            }
            registers.emplace(std::string(decl.reg), std::make_pair(base, decl.index));
            continue;
        }

        // Gate application: mnemonic operand-list.
        const auto kind = find_openqasm_gate(head);
        if (!kind) throw ParseError(loc, "unknown gate '" + std::string(head) + "'");
        qubits.clear();
        while (!rest.empty()) {
            const std::size_t comma = std::min(rest.find(','), rest.size());
            const std::string_view token = util::trim_view(rest.substr(0, comma));
            rest.remove_prefix(std::min(comma + 1, rest.size()));
            if (!token.empty()) qubits.push_back(resolve(token, loc));
        }

        const circuit::GateInfo& info = circuit::gate_info(*kind);
        // ccx: 2 controls; cswap: 1 control; others: min_controls.
        const std::size_t needed =
            static_cast<std::size_t>(info.targets) +
            (*kind == circuit::GateKind::Toffoli
                 ? 2
                 : static_cast<std::size_t>(std::max(info.min_controls, 0)));
        if (qubits.size() != needed) {
            throw ParseError(loc, "'" + util::to_lower(head) + "' expects " +
                                      std::to_string(needed) + " operands, got " +
                                      std::to_string(qubits.size()));
        }
        const std::span<const circuit::Qubit> all(qubits);
        try {
            circ.add_gate(circuit::Gate(*kind, all.first(needed - info.targets),
                                        all.last(info.targets)));
        } catch (const util::InputError& e) {
            throw ParseError(loc, e.what());
        }
    }
    return circ;
}

std::string write_openqasm(const circuit::Circuit& circ) {
    std::ostringstream out;
    out << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
    for (const auto& comment : circ.comments()) out << "// " << comment << '\n';
    // A qubit-less circuit (legal: a program with no qreg statements) must
    // round-trip; "qreg q[0];" would be rejected on re-parse.
    if (circ.num_qubits() > 0) out << "qreg q[" << circ.num_qubits() << "];\n";
    for (const circuit::Gate& gate : circ.gates()) {
        const char* mnemonic = circuit::gate_info(gate.kind()).name;
        switch (gate.kind()) {
            case circuit::GateKind::Cnot: mnemonic = "cx"; break;
            case circuit::GateKind::Toffoli:
                LEQA_REQUIRE(gate.controls().size() == 2,
                             "write_openqasm: lower multi-controlled Toffolis first");
                mnemonic = "ccx";
                break;
            case circuit::GateKind::Fredkin:
                LEQA_REQUIRE(gate.controls().size() == 1,
                             "write_openqasm: lower multi-controlled Fredkins first");
                mnemonic = "cswap";
                break;
            default: break;
        }
        out << mnemonic;
        bool first = true;
        for (const circuit::Qubit q : gate.qubits()) {
            out << (first ? " q[" : ", q[") << q << ']';
            first = false;
        }
        out << ";\n";
    }
    return out.str();
}

} // namespace leqa::parser
