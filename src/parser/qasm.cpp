#include "parser/qasm.h"

#include <algorithm>
#include <cctype>
#include <span>
#include <sstream>

#include "parser/diagnostics.h"
#include "util/strings.h"

namespace leqa::parser {

namespace {

/// The line up to its first "#"- or "//"-style comment.
std::string_view strip_comment(std::string_view line) {
    return line.substr(0, std::min(line.find('#'), line.find("//")));
}

/// Pop the next gate operand off \p rest: operands are separated by commas
/// and/or whitespace.  Empty once none is left.
std::string_view next_operand(std::string_view& rest) {
    const auto is_separator = [](char c) {
        return c == ',' || std::isspace(static_cast<unsigned char>(c)) != 0;
    };
    std::size_t i = 0;
    while (i < rest.size() && is_separator(rest[i])) ++i;
    const std::size_t begin = i;
    while (i < rest.size() && !is_separator(rest[i])) ++i;
    const std::string_view operand = rest.substr(begin, i - begin);
    rest.remove_prefix(i);
    return operand;
}

/// The single argument of a directive or declaration, or empty when there
/// is not exactly one.
std::string_view single_argument(std::string_view rest) {
    const std::string_view argument = util::next_field(rest);
    return util::next_field(rest).empty() ? argument : std::string_view();
}

} // namespace

circuit::Circuit parse_qasm(std::string_view text, const std::string& source_name) {
    circuit::Circuit circ;
    // One gate per line at most: a single reservation instead of regrowth.
    circ.reserve(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1);
    SourceLoc loc{source_name, 0};
    bool qubits_declared = false;
    std::vector<circuit::Qubit> operands; // reused by every gate line

    for (std::size_t pos = 0; pos < text.size();) {
        const std::size_t newline = std::min(text.find('\n', pos), text.size());
        const std::string_view raw_line = text.substr(pos, newline - pos);
        pos = newline + 1;
        ++loc.line;
        const std::string_view line = util::trim_view(strip_comment(raw_line));
        if (line.empty()) continue;

        std::string_view rest = line;
        const std::string_view head = util::next_field(rest);

        if (line[0] == '.') {
            const std::string_view argument = single_argument(rest);
            if (util::iequals(head, ".name")) {
                if (argument.empty()) throw ParseError(loc, ".name expects one argument");
                circ.set_name(std::string(argument));
            } else if (util::iequals(head, ".qubits")) {
                if (argument.empty()) throw ParseError(loc, ".qubits expects one argument");
                const auto count = util::parse_int(argument);
                if (!count || *count < 0) {
                    throw ParseError(loc, ".qubits expects a non-negative integer");
                }
                if (qubits_declared || circ.num_qubits() > 0) {
                    throw ParseError(loc, "qubits already declared");
                }
                for (long long i = 0; i < *count; ++i) circ.add_qubit();
                qubits_declared = true;
            } else {
                throw ParseError(loc, "unknown directive '" + std::string(head) + "'");
            }
            continue;
        }

        if (util::iequals(head, "qubit")) {
            const std::string_view name = single_argument(rest);
            if (name.empty()) throw ParseError(loc, "qubit expects one name");
            if (!util::is_identifier(name)) {
                throw ParseError(loc, "invalid qubit name '" + std::string(name) + "'");
            }
            try {
                circ.add_qubit(name);
            } catch (const util::InputError& e) {
                throw ParseError(loc, e.what());
            }
            continue;
        }

        const auto kind = circuit::find_gate_kind(head);
        if (!kind) {
            throw ParseError(loc, "unknown gate or keyword '" + std::string(head) + "'");
        }
        operands.clear();
        for (std::string_view token = next_operand(rest); !token.empty();
             token = next_operand(rest)) {
            const auto q = circ.find_qubit(token);
            if (!q) throw ParseError(loc, "unknown qubit '" + std::string(token) + "'");
            operands.push_back(*q);
        }
        // All operands but the kind's target count are controls.
        const circuit::GateInfo& info = circuit::gate_info(*kind);
        const auto n_targets = static_cast<std::size_t>(info.targets);
        if (operands.size() < n_targets) {
            throw ParseError(loc, std::string(info.name) + ": expected at least " +
                                      std::to_string(n_targets) + " operand(s)");
        }
        const std::span<const circuit::Qubit> all(operands);
        try {
            circ.add_gate(circuit::Gate(*kind, all.first(all.size() - n_targets),
                                        all.last(n_targets)));
        } catch (const util::InputError& e) {
            throw ParseError(loc, e.what());
        }
    }
    return circ;
}

std::string write_qasm(const circuit::Circuit& circ) {
    std::ostringstream out;
    for (const auto& comment : circ.comments()) out << "# " << comment << '\n';
    if (!circ.name().empty()) out << ".name " << circ.name() << '\n';

    // If all qubit names are the default q0..qN-1 pattern, use the compact
    // .qubits directive; otherwise declare each name.
    bool default_names = true;
    for (circuit::Qubit q = 0; q < circ.num_qubits(); ++q) {
        if (circ.qubit_name(q) != "q" + std::to_string(q)) {
            default_names = false;
            break;
        }
    }
    if (default_names) {
        out << ".qubits " << circ.num_qubits() << '\n';
    } else {
        for (circuit::Qubit q = 0; q < circ.num_qubits(); ++q) {
            out << "qubit " << circ.qubit_name(q) << '\n';
        }
    }

    for (const circuit::Gate& g : circ.gates()) {
        out << circuit::gate_info(g.kind()).name;
        bool first = true;
        for (const circuit::Qubit q : g.qubits()) {
            out << (first ? " " : ", ") << circ.qubit_name(q);
            first = false;
        }
        out << '\n';
    }
    return out.str();
}

} // namespace leqa::parser
