/// \file gate.h
/// \brief Gate kinds, per-kind metadata, and the Gate record.
///
/// The library distinguishes three gate tiers (paper §2):
///   - reversible-logic gates produced by synthesis: NOT/X, CNOT, Toffoli
///     (any number of controls), Fredkin (controlled SWAP, any number of
///     controls), SWAP;
///   - the fault-tolerant (FT) operation set the fabric executes:
///     {CNOT, H, T, T-dagger, S, S-dagger, X, Y, Z};
///   - everything else is rejected by the FT-checking passes.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace leqa::circuit {

/// Logical qubit index within a Circuit.
using Qubit = std::uint32_t;

enum class GateKind : std::uint8_t {
    // One-qubit FT operations.
    X,
    Y,
    Z,
    H,
    S,
    Sdg, ///< S-dagger (inverse phase)
    T,
    Tdg, ///< T-dagger (-pi/4 rotation)
    // Two-qubit FT operation (the only one, per the paper).
    Cnot,
    // Reversible-logic gates that FT synthesis lowers.
    Toffoli, ///< multi-controlled X; >= 1 control
    Fredkin, ///< multi-controlled SWAP; >= 1 control
    Swap,
};

/// Number of distinct GateKind values (for array-indexed tables).
inline constexpr std::size_t kGateKindCount = static_cast<std::size_t>(GateKind::Swap) + 1;

/// Static metadata for a gate kind.
struct GateInfo {
    const char* name;        ///< canonical lower-case mnemonic
    int min_controls;        ///< minimum number of control qubits
    int max_controls;        ///< maximum (-1 = unbounded)
    int targets;             ///< number of target qubits
    bool is_ft;              ///< member of the FT operation set
    bool is_classical;       ///< permutation of computational basis states
    bool is_self_inverse;    ///< U^2 = I
};

/// Metadata lookup (never fails; kind is a closed enum).
[[nodiscard]] const GateInfo& gate_info(GateKind kind);

/// Canonical mnemonic, e.g. "cnot", "tdg".
[[nodiscard]] std::string gate_name(GateKind kind);

/// Kind of a mnemonic (case-insensitive, aliases included), or nullopt.
/// Allocation-free; the parsers' one mnemonic lookup.
[[nodiscard]] std::optional<GateKind> find_gate_kind(std::string_view name);

/// Parse a mnemonic (case-insensitive).  Throws InputError if unknown.
[[nodiscard]] GateKind parse_gate_name(std::string_view name);

/// A single gate application: kind + control qubits + target qubits.
///
/// Operands are stored controls first, then targets, in one contiguous
/// run.  Up to kInlineQubits of them live inside the gate; only wider
/// (pre-FT multi-controlled) gates spill to a heap buffer the gate owns.
/// Controls and targets must be disjoint and duplicate-free; Gate::validate
/// enforces this.  For Fredkin the two swapped qubits are the targets.
class Gate {
public:
    /// Operands held without a heap buffer.  The spill pointer is 8-byte
    /// aligned, so four 32-bit qubits fill the same 16 bytes it does.
    static constexpr std::size_t kInlineQubits = 4;

    Gate() = default;
    Gate(GateKind kind, std::span<const Qubit> controls, std::span<const Qubit> targets);
    Gate(GateKind kind, std::initializer_list<Qubit> controls,
         std::initializer_list<Qubit> targets)
        : Gate(kind, std::span<const Qubit>(controls.begin(), controls.size()),
               std::span<const Qubit>(targets.begin(), targets.size())) {}

    Gate(const Gate& other);
    Gate(Gate&& other) noexcept;
    Gate& operator=(const Gate& other);
    Gate& operator=(Gate&& other) noexcept;
    ~Gate();

    [[nodiscard]] GateKind kind() const { return kind_; }

    [[nodiscard]] std::span<const Qubit> controls() const { return {data(), num_controls_}; }
    [[nodiscard]] std::span<const Qubit> targets() const {
        return {data() + num_controls_, num_targets_};
    }
    /// All touched qubits, controls first.
    [[nodiscard]] std::span<const Qubit> qubits() const { return {data(), arity()}; }

    /// Total qubits touched (controls + targets).
    [[nodiscard]] std::size_t arity() const {
        return static_cast<std::size_t>(num_controls_) + num_targets_;
    }

    /// True for gates touching exactly two qubits (CNOT, SWAP, 1-ctl ops).
    [[nodiscard]] bool is_two_qubit() const { return arity() == 2; }

    /// True if the gate is in the FT set *as applied* (e.g. Toffoli with
    /// two controls is not FT; CNOT is).
    [[nodiscard]] bool is_ft() const { return gate_info(kind_).is_ft; }

    /// Throws InputError if control/target counts are invalid for the kind,
    /// or if any qubit repeats.  Allocation-free except for very wide
    /// gates, whose duplicate check sorts a copy.
    void validate() const;

    /// Throws InputError if any qubit index is >= num_qubits (after validate).
    void validate_against(std::size_t num_qubits) const;

    /// Human-readable form, e.g. "toffoli q0, q1 -> q2".
    [[nodiscard]] std::string to_string() const;

    [[nodiscard]] bool operator==(const Gate& other) const;

private:
    [[nodiscard]] bool spilled() const { return arity() > kInlineQubits; }
    /// Move \p other's operands into this (uninitialized or released) gate.
    void take(Gate& other) noexcept;
    [[nodiscard]] const Qubit* data() const { return spilled() ? spill_ : inline_; }

    GateKind kind_ = GateKind::X;
    std::uint16_t num_targets_ = 0;
    std::uint32_t num_controls_ = 0;
    union {
        Qubit inline_[kInlineQubits] = {};
        Qubit* spill_; ///< owned, arity() entries; active iff spilled()
    };
};

/// Convenience constructors for the common gates.
[[nodiscard]] Gate make_x(Qubit q);
[[nodiscard]] Gate make_y(Qubit q);
[[nodiscard]] Gate make_z(Qubit q);
[[nodiscard]] Gate make_h(Qubit q);
[[nodiscard]] Gate make_s(Qubit q);
[[nodiscard]] Gate make_sdg(Qubit q);
[[nodiscard]] Gate make_t(Qubit q);
[[nodiscard]] Gate make_tdg(Qubit q);
[[nodiscard]] Gate make_cnot(Qubit control, Qubit target);
[[nodiscard]] Gate make_toffoli(Qubit c0, Qubit c1, Qubit target);
[[nodiscard]] Gate make_mcx(std::span<const Qubit> controls, Qubit target);
[[nodiscard]] Gate make_fredkin(Qubit control, Qubit a, Qubit b);
[[nodiscard]] Gate make_mcswap(std::span<const Qubit> controls, Qubit a, Qubit b);
[[nodiscard]] Gate make_swap(Qubit a, Qubit b);

inline Gate make_mcx(std::initializer_list<Qubit> controls, Qubit target) {
    return make_mcx(std::span<const Qubit>(controls.begin(), controls.size()), target);
}
inline Gate make_mcswap(std::initializer_list<Qubit> controls, Qubit a, Qubit b) {
    return make_mcswap(std::span<const Qubit>(controls.begin(), controls.size()), a, b);
}

} // namespace leqa::circuit
