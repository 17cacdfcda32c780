#include "parser/qasm.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>

#include "parser/diagnostics.h"
#include "util/strings.h"

namespace leqa::parser {

namespace {

/// Byte classes of the line scanner: whitespace (exactly the set
/// util::is_space accepts), the operand comma, and the bytes that may end
/// a line's content ('\n', '#', and '/' when another '/' follows).
enum ByteClass : std::uint8_t { kField = 0, kSpace = 1, kComma = 2, kStop = 4 };

constexpr std::array<std::uint8_t, 256> kByteClass = [] {
    std::array<std::uint8_t, 256> table{};
    for (std::size_t c = 0; c < table.size(); ++c) {
        if (util::is_space(static_cast<char>(c))) table[c] = kSpace;
    }
    table[static_cast<unsigned char>(',')] = kComma;
    table[static_cast<unsigned char>('\n')] = kStop;
    table[static_cast<unsigned char>('#')] = kStop;
    table[static_cast<unsigned char>('/')] = kStop;
    return table;
}();

/// Cursor over QASM text that hands out the fields of one line at a time.
/// A line's content ends at the first newline, "#" or "//", found by the
/// same scan that splits the fields, so each byte of a line is classified
/// once.
class LineScanner {
public:
    explicit LineScanner(std::string_view text)
        : pos_(text.data()), end_(text.data() + text.size()) {}

    /// Move to the start of the next line (the first one on the first
    /// call), past whatever is left of the current one; false once the text
    /// is used up.
    bool next_line() {
        if (started_) {
            const void* newline =
                std::memchr(pos_, '\n', static_cast<std::size_t>(end_ - pos_));
            pos_ = newline == nullptr ? end_ : static_cast<const char*>(newline) + 1;
        }
        started_ = true;
        return pos_ != end_;
    }

    /// Next field of the line's content: separated by whitespace, and also
    /// by commas when \p commas is set (gate operands).  Empty once none is
    /// left on the line.
    std::string_view next(bool commas) {
        const std::uint8_t separators = commas ? kSpace | kComma : kSpace;
        while (pos_ != end_ && (byte_class() & separators) != 0) ++pos_;
        const char* begin = pos_;
        for (; pos_ != end_; ++pos_) {
            const std::uint8_t cls = byte_class();
            if (cls == kField) continue;
            if ((cls & separators) != 0 || (cls == kStop && ends_content())) break;
        }
        return {begin, static_cast<std::size_t>(pos_ - begin)};
    }

private:
    [[nodiscard]] std::uint8_t byte_class() const {
        return kByteClass[static_cast<unsigned char>(*pos_)];
    }

    /// True when the stop byte at pos_ ends the content: a lone '/' is an
    /// ordinary field byte.
    [[nodiscard]] bool ends_content() const {
        return *pos_ != '/' || (end_ - pos_ > 1 && pos_[1] == '/');
    }

    const char* pos_;
    const char* end_;
    bool started_ = false;
};

/// The single argument of a directive or declaration, or empty when there
/// is not exactly one.
std::string_view single_argument(LineScanner& line) {
    const std::string_view argument = line.next(/*commas=*/false);
    return line.next(/*commas=*/false).empty() ? argument : std::string_view();
}

} // namespace

circuit::Circuit parse_qasm(std::string_view text, const std::string& source_name) {
    circuit::Circuit circ;
    // One gate per line at most: a single reservation instead of regrowth.
    circ.reserve(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1);
    SourceLoc loc{source_name, 0};
    bool qubits_declared = false;
    std::vector<circuit::Qubit> operands; // reused by every gate line

    LineScanner line(text);
    while (line.next_line()) {
        ++loc.line;
        const std::string_view head = line.next(/*commas=*/false);
        if (head.empty()) continue;

        if (head[0] == '.') {
            const std::string_view argument = single_argument(line);
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

        const auto kind = circuit::find_gate_kind(head);
        if (!kind) {
            if (!util::iequals(head, "qubit")) {
                throw ParseError(loc, "unknown gate or keyword '" + std::string(head) + "'");
            }
            const std::string_view name = single_argument(line);
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

        operands.clear();
        for (std::string_view token = line.next(/*commas=*/true); !token.empty();
             token = line.next(/*commas=*/true)) {
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
