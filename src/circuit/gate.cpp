#include "circuit/gate.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <limits>
#include <sstream>
#include <vector>

#include "util/error.h"

namespace leqa::circuit {

namespace {
// Indexed by GateKind.  max_controls == -1 means unbounded.
constexpr std::array<GateInfo, kGateKindCount> kGateTable = {{
    /* X       */ {"x", 0, 0, 1, true, true, true},
    /* Y       */ {"y", 0, 0, 1, true, false, true},
    /* Z       */ {"z", 0, 0, 1, true, false, true},
    /* H       */ {"h", 0, 0, 1, true, false, true},
    /* S       */ {"s", 0, 0, 1, true, false, false},
    /* Sdg     */ {"sdg", 0, 0, 1, true, false, false},
    /* T       */ {"t", 0, 0, 1, true, false, false},
    /* Tdg     */ {"tdg", 0, 0, 1, true, false, false},
    /* Cnot    */ {"cnot", 1, 1, 1, true, true, true},
    /* Toffoli */ {"toffoli", 1, -1, 1, false, true, true},
    /* Fredkin */ {"fredkin", 1, -1, 2, false, true, true},
    /* Swap    */ {"swap", 0, 0, 2, false, true, true},
}};
} // namespace

const GateInfo& gate_info(GateKind kind) {
    return kGateTable[static_cast<std::size_t>(kind)];
}

std::string gate_name(GateKind kind) { return gate_info(kind).name; }

std::optional<GateKind> find_gate_kind(std::string_view name) {
    // Netlists spell the FT set in canonical lower case: a switch on length
    // and first byte settles those without a table scan.
    switch (name.size()) {
        case 1:
            switch (name[0]) {
                case 'x': return GateKind::X;
                case 'y': return GateKind::Y;
                case 'z': return GateKind::Z;
                case 'h': return GateKind::H;
                case 's': return GateKind::S;
                case 't': return GateKind::T;
                default: break;
            }
            break;
        case 2:
            if (name == "cx") return GateKind::Cnot;
            break;
        case 3:
            if (name == "tdg") return GateKind::Tdg;
            if (name == "sdg") return GateKind::Sdg;
            break;
        case 4:
            if (name == "cnot") return GateKind::Cnot;
            break;
        default: break;
    }
    // Anything else: lower-case into a stack buffer (mnemonics are short,
    // never the heap) and compare against every name and alias.
    char lowered[8] = {};
    if (name.empty() || name.size() > sizeof(lowered)) return std::nullopt;
    for (std::size_t i = 0; i < name.size(); ++i) {
        lowered[i] = static_cast<char>(std::tolower(static_cast<unsigned char>(name[i])));
    }
    const std::string_view key(lowered, name.size());
    for (std::size_t i = 0; i < kGateKindCount; ++i) {
        if (key == kGateTable[i].name) return static_cast<GateKind>(i);
    }
    // Accept common aliases.
    if (key == "not") return GateKind::X;
    if (key == "cx") return GateKind::Cnot;
    if (key == "ccx" || key == "ccnot") return GateKind::Toffoli;
    if (key == "cswap") return GateKind::Fredkin;
    if (key == "t+" || key == "tdag") return GateKind::Tdg;
    if (key == "s+" || key == "sdag") return GateKind::Sdg;
    return std::nullopt;
}

GateKind parse_gate_name(std::string_view name) {
    const auto kind = find_gate_kind(name);
    if (!kind) throw util::InputError("unknown gate mnemonic: " + std::string(name));
    return *kind;
}

Gate::Gate(GateKind kind, std::span<const Qubit> controls, std::span<const Qubit> targets)
    : kind_(kind) {
    LEQA_REQUIRE(targets.size() <= std::numeric_limits<std::uint16_t>::max() &&
                     controls.size() <= std::numeric_limits<std::uint32_t>::max(),
                 std::string(gate_info(kind).name) + ": too many operands");
    num_targets_ = static_cast<std::uint16_t>(targets.size());
    num_controls_ = static_cast<std::uint32_t>(controls.size());
    Qubit* out = inline_;
    if (spilled()) {
        spill_ = new Qubit[arity()];
        out = spill_;
    }
    std::copy(controls.begin(), controls.end(), out);
    std::copy(targets.begin(), targets.end(), out + controls.size());
}

Gate::Gate(const Gate& other)
    : kind_(other.kind_), num_targets_(other.num_targets_), num_controls_(other.num_controls_) {
    if (spilled()) {
        spill_ = new Qubit[arity()];
        std::copy_n(other.spill_, arity(), spill_);
    } else {
        std::copy_n(other.inline_, arity(), inline_);
    }
}

Gate::Gate(Gate&& other) noexcept { take(other); }

Gate& Gate::operator=(const Gate& other) {
    if (this != &other) *this = Gate(other);
    return *this;
}

Gate& Gate::operator=(Gate&& other) noexcept {
    if (this != &other) {
        if (spilled()) delete[] spill_;
        take(other);
    }
    return *this;
}

void Gate::take(Gate& other) noexcept {
    kind_ = other.kind_;
    num_targets_ = other.num_targets_;
    num_controls_ = other.num_controls_;
    if (spilled()) {
        spill_ = other.spill_;
        other.num_controls_ = 0; // other keeps no operands and owns no buffer
        other.num_targets_ = 0;
    } else {
        std::copy_n(other.inline_, arity(), inline_);
    }
}

Gate::~Gate() {
    if (spilled()) delete[] spill_;
}

bool Gate::operator==(const Gate& other) const {
    const auto mine = qubits();
    const auto theirs = other.qubits();
    return kind_ == other.kind_ && num_controls_ == other.num_controls_ &&
           num_targets_ == other.num_targets_ &&
           std::equal(mine.begin(), mine.end(), theirs.begin());
}

void Gate::validate() const {
    const GateInfo& info = gate_info(kind_);
    const auto n_controls = static_cast<long long>(num_controls_);
    const auto n_targets = static_cast<long long>(num_targets_);
    LEQA_REQUIRE(n_controls >= info.min_controls,
                 std::string(info.name) + ": too few controls");
    LEQA_REQUIRE(info.max_controls < 0 || n_controls <= info.max_controls,
                 std::string(info.name) + ": too many controls");
    LEQA_REQUIRE(n_targets == info.targets,
                 std::string(info.name) + ": wrong number of targets");
    // Pairwise below the cutoff (every FT gate); sort a copy above it.
    constexpr std::size_t kPairwiseCutoff = 16;
    const auto all = qubits();
    bool duplicate = false;
    if (all.size() <= kPairwiseCutoff) {
        for (std::size_t i = 1; i < all.size() && !duplicate; ++i) {
            for (std::size_t j = 0; j < i; ++j) duplicate = duplicate || all[i] == all[j];
        }
    } else {
        std::vector<Qubit> sorted(all.begin(), all.end());
        std::sort(sorted.begin(), sorted.end());
        duplicate = std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
    }
    LEQA_REQUIRE(!duplicate, std::string(info.name) + ": duplicate qubit operand");
}

void Gate::validate_against(std::size_t num_qubits) const {
    validate();
    for (const Qubit q : qubits()) {
        LEQA_REQUIRE(q < num_qubits,
                     "qubit index " + std::to_string(q) + " out of range (circuit has " +
                         std::to_string(num_qubits) + " qubits)");
    }
}

std::string Gate::to_string() const {
    std::ostringstream out;
    out << gate_name(kind_);
    bool first = true;
    for (const Qubit q : controls()) {
        out << (first ? " q" : ", q") << q;
        first = false;
    }
    if (num_controls_ > 0) out << " ->";
    first = true;
    for (const Qubit q : targets()) {
        out << (first ? " q" : ", q") << q;
        first = false;
    }
    return out.str();
}

Gate make_x(Qubit q) { return Gate(GateKind::X, {}, {q}); }
Gate make_y(Qubit q) { return Gate(GateKind::Y, {}, {q}); }
Gate make_z(Qubit q) { return Gate(GateKind::Z, {}, {q}); }
Gate make_h(Qubit q) { return Gate(GateKind::H, {}, {q}); }
Gate make_s(Qubit q) { return Gate(GateKind::S, {}, {q}); }
Gate make_sdg(Qubit q) { return Gate(GateKind::Sdg, {}, {q}); }
Gate make_t(Qubit q) { return Gate(GateKind::T, {}, {q}); }
Gate make_tdg(Qubit q) { return Gate(GateKind::Tdg, {}, {q}); }

Gate make_cnot(Qubit control, Qubit target) {
    return Gate(GateKind::Cnot, {control}, {target});
}

Gate make_toffoli(Qubit c0, Qubit c1, Qubit target) {
    return Gate(GateKind::Toffoli, {c0, c1}, {target});
}

Gate make_mcx(std::span<const Qubit> controls, Qubit target) {
    if (controls.size() == 1) return make_cnot(controls[0], target);
    return Gate(GateKind::Toffoli, controls, std::span<const Qubit>(&target, 1));
}

Gate make_fredkin(Qubit control, Qubit a, Qubit b) {
    return Gate(GateKind::Fredkin, {control}, {a, b});
}

Gate make_mcswap(std::span<const Qubit> controls, Qubit a, Qubit b) {
    const std::array<Qubit, 2> swapped{a, b};
    return Gate(GateKind::Fredkin, controls, swapped);
}

Gate make_swap(Qubit a, Qubit b) { return Gate(GateKind::Swap, {}, {a, b}); }

} // namespace leqa::circuit
