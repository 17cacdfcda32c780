#include "parser/openqasm.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <sstream>
#include <utility>

#include "parser/diagnostics.h"
#include "util/strings.h"

namespace leqa::parser {

namespace {

/// A ';'-terminated statement: a view from its first to its last
/// non-blank character, and the line that first character is on.
struct Statement {
    std::string_view text;
    std::size_t line = 0;
};

/// Finds statements one at a time as views into the text.  A statement
/// may span lines and hold "//" comments; the few that hold a newline or a
/// comment between two of their fields are folded into a reused buffer
/// (comments dropped, newlines as spaces), so their fields and diagnostics
/// read as if written on one line.
class StatementScanner {
public:
    /// Throws ParseError at once when the text ends inside a statement, so
    /// that diagnostic precedes those of any earlier statement.
    StatementScanner(std::string_view text, const std::string& source_name)
        : pos_(text.data()), end_(text.data() + text.size()), source_name_(source_name) {
        // Only the text after the last ';' outside a comment can be an
        // unterminated statement; scan just that tail, counting its lines.
        const char* tail = text.data();
        for (std::size_t cut = text.size(); cut > 0;) {
            const std::size_t semicolon = text.rfind(';', cut - 1);
            if (semicolon == std::string_view::npos) break;
            const std::size_t newline = text.rfind('\n', semicolon);
            const std::size_t line_start = newline == std::string_view::npos ? 0 : newline + 1;
            const std::size_t comment =
                text.substr(line_start, semicolon - line_start).find("//");
            if (comment == std::string_view::npos) {
                tail = text.data() + semicolon + 1;
                break;
            }
            cut = line_start + comment; // that ';' is commented out
        }
        const char* const begin = pos_;
        pos_ = tail;
        line_ = 1 + static_cast<std::size_t>(std::count(begin, tail, '\n'));
        Statement unused;
        (void)next(unused); // blank tail: false; anything else throws
        pos_ = begin;
        line_ = 1;
    }

    /// The next non-blank statement, or false once the text is used up.
    /// Throws ParseError when the text ends inside a statement.
    bool next(Statement& out) {
        for (;;) {
            const char* first = nullptr; // first non-blank character
            const char* last = nullptr;  // one past the last one
            bool broken = false;         // newline or comment after `first`
            bool folded = false;         // ... followed by more content
            std::size_t first_line = line_;
            while (pos_ < end_ && *pos_ != ';') {
                const char c = *pos_;
                if (c == '\n') {
                    ++line_;
                    broken = first != nullptr;
                } else if (c == '/' && end_ - pos_ > 1 && pos_[1] == '/') {
                    pos_ = line_end(pos_);
                    broken = first != nullptr;
                    continue;
                } else if (!util::is_space(c)) {
                    if (first == nullptr) {
                        first = pos_;
                        first_line = line_;
                    }
                    folded = folded || broken;
                    broken = false;
                    last = pos_ + 1;
                }
                ++pos_;
            }
            if (pos_ == end_) {
                if (first == nullptr) return false;
                throw ParseError({source_name_, first_line},
                                 "statement not terminated by ';': '" +
                                     std::string(fold(first, last)) + "'");
            }
            ++pos_; // past the ';'
            if (first == nullptr) continue; // blank statement
            out.line = first_line;
            out.text = folded ? fold(first, last)
                              : std::string_view(first, static_cast<std::size_t>(last - first));
            return true;
        }
    }

private:
    /// The newline ending the line \p from is on, or the end of the text.
    const char* line_end(const char* from) const {
        const void* newline = std::memchr(from, '\n', static_cast<std::size_t>(end_ - from));
        return newline == nullptr ? end_ : static_cast<const char*>(newline);
    }

    /// [first, last) with comments dropped and newlines as spaces.
    std::string_view fold(const char* first, const char* last) {
        folded_.clear();
        for (const char* p = first; p < last; ++p) {
            if (*p == '/' && last - p > 1 && p[1] == '/') {
                p = line_end(p) - 1; // the newline is folded next
            } else {
                folded_ += *p == '\n' ? ' ' : *p;
            }
        }
        return folded_;
    }

    const char* pos_;
    const char* end_;
    std::size_t line_ = 1;
    const std::string& source_name_;
    std::string folded_;
};

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

/// What a statement's first field makes it.
enum class Head : std::uint8_t {
    Header,      ///< OPENQASM
    Ignored,     ///< include, creg, barrier, id
    Unsupported, ///< measure, reset, if, gate, u*, r*, cu1
    Qreg,
    Gate,
    Unknown,
};

struct HeadClass {
    Head head = Head::Unknown;
    circuit::GateKind kind = circuit::GateKind::X; ///< for Head::Gate
};

/// Classify a statement's first field, case-insensitively: a switch on
/// length and first byte, then one comparison per candidate word.
HeadClass classify_head(std::string_view field) {
    char lowered[8] = {};
    if (field.empty() || field.size() > sizeof(lowered)) return {};
    for (std::size_t i = 0; i < field.size(); ++i) {
        const char c = field[i];
        lowered[i] = c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
    }
    const std::string_view key(lowered, field.size());
    using circuit::GateKind;
    const auto gate = [](GateKind kind) { return HeadClass{Head::Gate, kind}; };
    const HeadClass unsupported{Head::Unsupported};
    switch (key.size()) {
        case 1:
            switch (key[0]) {
                case 'x': return gate(GateKind::X);
                case 'y': return gate(GateKind::Y);
                case 'z': return gate(GateKind::Z);
                case 'h': return gate(GateKind::H);
                case 's': return gate(GateKind::S);
                case 't': return gate(GateKind::T);
                case 'u': return unsupported;
                default: return {};
            }
        case 2:
            if (key == "cx") return gate(GateKind::Cnot);
            if (key == "id") return {Head::Ignored};
            if (key == "if" || key == "u1" || key == "u2" || key == "u3" || key == "rx" ||
                key == "ry" || key == "rz") {
                return unsupported;
            }
            return {};
        case 3:
            if (key == "tdg") return gate(GateKind::Tdg);
            if (key == "sdg") return gate(GateKind::Sdg);
            if (key == "ccx") return gate(GateKind::Toffoli);
            if (key == "cu1") return unsupported;
            return {};
        case 4:
            if (key == "cnot") return gate(GateKind::Cnot);
            if (key == "swap") return gate(GateKind::Swap);
            if (key == "qreg") return {Head::Qreg};
            if (key == "creg") return {Head::Ignored};
            if (key == "gate") return unsupported;
            return {};
        case 5:
            if (key == "cswap") return gate(GateKind::Fredkin);
            if (key == "reset") return unsupported;
            return {};
        case 7:
            if (key == "include" || key == "barrier") return {Head::Ignored};
            if (key == "measure") return unsupported;
            return {};
        case 8:
            if (key == "openqasm") return {Head::Header};
            return {};
        default: return {};
    }
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
        // Every declared qubit is named "reg[i]", so a token written that
        // way is one probe of the circuit's qubit index.  Other spellings
        // ("q[01]", "q [1]") and errors take the register table.
        if (const auto q = circ.find_qubit(token)) return *q;
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
    std::string qubit_name;              // reused by every qreg statement
    StatementScanner scanner(text, source_name);
    SourceLoc loc{source_name, 0}; // one copy of the name, not one per statement
    for (Statement statement; scanner.next(statement);) {
        loc.line = statement.line;
        std::string_view rest = statement.text;
        const std::string_view head = util::next_field(rest);
        const HeadClass what = classify_head(head);

        if (what.head == Head::Header) {
            saw_header = true;
            continue;
        }
        if (!saw_header) throw ParseError(loc, "missing OPENQASM 2.0 declaration");
        if (what.head == Head::Ignored) continue; // irrelevant to the latency model
        if (what.head == Head::Unsupported) {
            throw ParseError(loc, "unsupported OpenQASM construct '" + std::string(head) +
                                      "' (LEQA consumes FT Clifford+T netlists)");
        }
        if (what.head == Head::Qreg) {
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
                qubit_name.assign(decl.reg);
                qubit_name += '[';
                qubit_name += std::to_string(i);
                qubit_name += ']';
                circ.add_qubit(qubit_name);
            }
            registers.emplace(std::string(decl.reg), std::make_pair(base, decl.index));
            continue;
        }

        // Gate application: mnemonic operand-list.
        if (what.head != Head::Gate) {
            throw ParseError(loc, "unknown gate '" + std::string(head) + "'");
        }
        const circuit::GateKind kind = what.kind;
        qubits.clear();
        while (!rest.empty()) {
            const std::size_t comma = std::min(rest.find(','), rest.size());
            const std::string_view token = util::trim_view(rest.substr(0, comma));
            rest.remove_prefix(std::min(comma + 1, rest.size()));
            if (!token.empty()) qubits.push_back(resolve(token, loc));
        }

        const circuit::GateInfo& info = circuit::gate_info(kind);
        // ccx: 2 controls; cswap: 1 control; others: min_controls.
        const std::size_t needed =
            static_cast<std::size_t>(info.targets) +
            (kind == circuit::GateKind::Toffoli
                 ? 2
                 : static_cast<std::size_t>(std::max(info.min_controls, 0)));
        if (qubits.size() != needed) {
            throw ParseError(loc, "'" + util::to_lower(head) + "' expects " +
                                      std::to_string(needed) + " operands, got " +
                                      std::to_string(qubits.size()));
        }
        const std::span<const circuit::Qubit> all(qubits);
        try {
            circ.add_gate(circuit::Gate(kind, all.first(needed - info.targets),
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
