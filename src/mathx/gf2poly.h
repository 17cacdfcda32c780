/// \file gf2poly.h
/// \brief Dense polynomial arithmetic over GF(2) and irreducibility testing.
///
/// Supports the GF(2^n) multiplier benchmark generator: the reduction
/// structure of a Mastrovito-style multiplier is determined by an
/// irreducible trinomial x^n + x^t + 1 or pentanomial
/// x^n + x^t3 + x^t2 + x^t1 + 1.  Irreducibility is established with
/// Rabin's test (x^(2^n) = x mod p, and gcd(x^(2^(n/d)) - x, p) = 1 for
/// every prime divisor d of n).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace leqa::mathx {

/// Polynomial over GF(2); bit i of the backing words is the coefficient of
/// x^i.  The zero polynomial has degree -1.
class Gf2Poly {
public:
    Gf2Poly() = default;

    /// x^e.
    static Gf2Poly monomial(int exponent);

    /// Sum of monomials, e.g. from_exponents({16, 5, 3, 1, 0}).
    static Gf2Poly from_exponents(const std::vector<int>& exponents);

    [[nodiscard]] int degree() const;
    [[nodiscard]] bool is_zero() const { return degree() < 0; }
    [[nodiscard]] bool coeff(int exponent) const;
    void set_coeff(int exponent, bool value);

    /// Exponents with non-zero coefficients, descending.
    [[nodiscard]] std::vector<int> exponents() const;

    void operator^=(const Gf2Poly& other); ///< addition over GF(2)
    [[nodiscard]] bool operator==(const Gf2Poly& other) const;

    /// this * x^k.
    [[nodiscard]] Gf2Poly shifted(int k) const;

    /// Remainder of this modulo \p modulus (degree >= 0 required).
    [[nodiscard]] Gf2Poly mod(const Gf2Poly& modulus) const;

    /// (a * b) mod modulus.
    static Gf2Poly mulmod(const Gf2Poly& a, const Gf2Poly& b, const Gf2Poly& modulus);

    /// gcd(a, b).
    static Gf2Poly gcd(Gf2Poly a, Gf2Poly b);

    /// Human-readable form like "x^16 + x^5 + x^3 + x + 1".
    [[nodiscard]] std::string to_string() const;

private:
    void trim();
    std::vector<std::uint64_t> words_;
};

/// Rabin irreducibility test over GF(2).
[[nodiscard]] bool is_irreducible(const Gf2Poly& p);

/// Smallest t such that x^n + x^t + 1 is irreducible, if any (n >= 2).
[[nodiscard]] std::optional<int> find_irreducible_trinomial(int n);

/// Lexicographically smallest (t3, t2, t1), t3 > t2 > t1 >= 1, such that
/// x^n + x^t3 + x^t2 + x^t1 + 1 is irreducible, if any (n >= 4).
[[nodiscard]] std::optional<std::vector<int>> find_irreducible_pentanomial(int n);

/// Middle exponents (descending, excluding n and 0) of an irreducible
/// polynomial of degree n: 1 entry (the smallest trinomial) when
/// force_pentanomial is false and one exists, else 3 entries (the
/// lexicographically smallest pentanomial).  Degrees 2..256 come from a
/// checked-in table generated by the searches above; larger degrees run
/// the search once per process and cache it.  Throws InputError when
/// neither form exists (or, for a forced pentanomial, when n < 4).
[[nodiscard]] std::vector<int> irreducible_middle_terms(int n, bool force_pentanomial);

} // namespace leqa::mathx
