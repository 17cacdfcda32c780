#include "mathx/gf2poly.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <map>
#include <sstream>

#include "util/error.h"
#include "util/thread_annotations.h"

namespace leqa::mathx {

namespace {
constexpr int kWordBits = 64;

std::vector<int> prime_factors(int n) {
    std::vector<int> factors;
    for (int p = 2; p * p <= n; ++p) {
        if (n % p == 0) {
            factors.push_back(p);
            while (n % p == 0) n /= p;
        }
    }
    if (n > 1) factors.push_back(n);
    return factors;
}
} // namespace

Gf2Poly Gf2Poly::monomial(int exponent) {
    LEQA_REQUIRE(exponent >= 0, "monomial exponent must be non-negative");
    Gf2Poly p;
    p.set_coeff(exponent, true);
    return p;
}

Gf2Poly Gf2Poly::from_exponents(const std::vector<int>& exponents) {
    Gf2Poly p;
    for (const int e : exponents) p.set_coeff(e, !p.coeff(e));
    return p;
}

int Gf2Poly::degree() const {
    for (std::size_t w = words_.size(); w > 0; --w) {
        const std::uint64_t word = words_[w - 1];
        if (word != 0) {
            return static_cast<int>((w - 1) * kWordBits) + (63 - std::countl_zero(word));
        }
    }
    return -1;
}

bool Gf2Poly::coeff(int exponent) const {
    LEQA_REQUIRE(exponent >= 0, "exponent must be non-negative");
    const auto word = static_cast<std::size_t>(exponent) / kWordBits;
    if (word >= words_.size()) return false;
    return ((words_[word] >> (exponent % kWordBits)) & 1ULL) != 0;
}

void Gf2Poly::set_coeff(int exponent, bool value) {
    LEQA_REQUIRE(exponent >= 0, "exponent must be non-negative");
    const auto word = static_cast<std::size_t>(exponent) / kWordBits;
    if (word >= words_.size()) {
        if (!value) return;
        words_.resize(word + 1, 0);
    }
    const std::uint64_t mask = 1ULL << (exponent % kWordBits);
    if (value) {
        words_[word] |= mask;
    } else {
        words_[word] &= ~mask;
    }
    trim();
}

std::vector<int> Gf2Poly::exponents() const {
    std::vector<int> out;
    for (int e = degree(); e >= 0; --e) {
        if (coeff(e)) out.push_back(e);
    }
    return out;
}

void Gf2Poly::operator^=(const Gf2Poly& other) {
    if (other.words_.size() > words_.size()) words_.resize(other.words_.size(), 0);
    for (std::size_t w = 0; w < other.words_.size(); ++w) words_[w] ^= other.words_[w];
    trim();
}

bool Gf2Poly::operator==(const Gf2Poly& other) const {
    const std::size_t common = std::min(words_.size(), other.words_.size());
    for (std::size_t w = 0; w < common; ++w) {
        if (words_[w] != other.words_[w]) return false;
    }
    for (std::size_t w = common; w < words_.size(); ++w) {
        if (words_[w] != 0) return false;
    }
    for (std::size_t w = common; w < other.words_.size(); ++w) {
        if (other.words_[w] != 0) return false;
    }
    return true;
}

Gf2Poly Gf2Poly::shifted(int k) const {
    LEQA_REQUIRE(k >= 0, "shift must be non-negative");
    if (is_zero() || k == 0) {
        Gf2Poly copy = *this;
        return copy;
    }
    Gf2Poly out;
    const int word_shift = k / kWordBits;
    const int bit_shift = k % kWordBits;
    out.words_.assign(words_.size() + static_cast<std::size_t>(word_shift) + 1, 0);
    for (std::size_t w = 0; w < words_.size(); ++w) {
        out.words_[w + word_shift] |= words_[w] << bit_shift;
        if (bit_shift != 0) {
            out.words_[w + word_shift + 1] |= words_[w] >> (kWordBits - bit_shift);
        }
    }
    out.trim();
    return out;
}

Gf2Poly Gf2Poly::mod(const Gf2Poly& modulus) const {
    LEQA_REQUIRE(!modulus.is_zero(), "modulus must be non-zero");
    Gf2Poly remainder = *this;
    const int mod_degree = modulus.degree();
    int deg = remainder.degree();
    while (deg >= mod_degree) {
        remainder ^= modulus.shifted(deg - mod_degree);
        deg = remainder.degree();
    }
    return remainder;
}

Gf2Poly Gf2Poly::mulmod(const Gf2Poly& a, const Gf2Poly& b, const Gf2Poly& modulus) {
    LEQA_REQUIRE(!modulus.is_zero(), "modulus must be non-zero");
    const int n = modulus.degree();
    if (n == 0) return Gf2Poly(); // everything is 0 modulo a constant
    const Gf2Poly a_reduced = a.mod(modulus);
    Gf2Poly b_reduced = b.mod(modulus);
    // Horner style over the bits of a, high to low, in place: the working
    // polynomial stays below degree n, so each shift by one reaches at most
    // degree n and a single XOR of the modulus reduces it again.
    const std::size_t words = static_cast<std::size_t>(n) / kWordBits + 1;
    const auto top_word = static_cast<std::size_t>(n) / kWordBits;
    const std::uint64_t top_bit = 1ULL << (n % kWordBits);
    b_reduced.words_.resize(words, 0);
    Gf2Poly result;
    result.words_.assign(words, 0);
    for (int e = a_reduced.degree(); e >= 0; --e) {
        std::uint64_t carry = 0;
        for (std::uint64_t& word : result.words_) {
            const std::uint64_t next = word >> (kWordBits - 1);
            word = (word << 1) | carry;
            carry = next;
        }
        if (a_reduced.coeff(e)) {
            for (std::size_t w = 0; w < words; ++w) result.words_[w] ^= b_reduced.words_[w];
        }
        if ((result.words_[top_word] & top_bit) != 0) {
            for (std::size_t w = 0; w < words; ++w) result.words_[w] ^= modulus.words_[w];
        }
    }
    result.trim();
    return result;
}

Gf2Poly Gf2Poly::gcd(Gf2Poly a, Gf2Poly b) {
    while (!b.is_zero()) {
        Gf2Poly r = a.mod(b);
        a = b;
        b = r;
    }
    return a;
}

std::string Gf2Poly::to_string() const {
    if (is_zero()) return "0";
    std::ostringstream out;
    bool first = true;
    for (const int e : exponents()) {
        if (!first) out << " + ";
        if (e == 0) out << "1";
        else if (e == 1) out << "x";
        else out << "x^" << e;
        first = false;
    }
    return out.str();
}

void Gf2Poly::trim() {
    while (!words_.empty() && words_.back() == 0) words_.pop_back();
}

bool is_irreducible(const Gf2Poly& p) {
    const int n = p.degree();
    if (n <= 0) return false;
    if (n == 1) return true;
    if (!p.coeff(0)) return false; // divisible by x

    const Gf2Poly x = Gf2Poly::monomial(1);

    // x^(2^n) mod p must equal x.
    Gf2Poly cur = x;
    for (int i = 0; i < n; ++i) cur = Gf2Poly::mulmod(cur, cur, p);
    if (!(cur == x.mod(p))) return false;

    // For each prime divisor d of n: gcd(x^(2^(n/d)) - x, p) must be 1.
    for (const int d : prime_factors(n)) {
        Gf2Poly h = x;
        for (int i = 0; i < n / d; ++i) h = Gf2Poly::mulmod(h, h, p);
        h ^= x;
        const Gf2Poly g = Gf2Poly::gcd(h.mod(p), p);
        if (g.degree() != 0) return false;
    }
    return true;
}

std::optional<int> find_irreducible_trinomial(int n) {
    LEQA_REQUIRE(n >= 2, "degree must be >= 2");
    for (int t = 1; t < n; ++t) {
        if (is_irreducible(Gf2Poly::from_exponents({n, t, 0}))) return t;
    }
    return std::nullopt;
}

std::optional<std::vector<int>> find_irreducible_pentanomial(int n) {
    LEQA_REQUIRE(n >= 4, "degree must be >= 4");
    for (int t3 = 3; t3 < n; ++t3) {
        for (int t2 = 2; t2 < t3; ++t2) {
            for (int t1 = 1; t1 < t2; ++t1) {
                if (is_irreducible(Gf2Poly::from_exponents({n, t3, t2, t1, 0}))) {
                    return std::vector<int>{t3, t2, t1};
                }
            }
        }
    }
    return std::nullopt;
}

namespace {

/// Degrees covered by kMiddleTerms.
constexpr int kTableMinDegree = 2;
constexpr int kTableMaxDegree = 256;

/// Middle exponents for every degree 2..256, generated by the searches
/// above (find_irreducible_trinomial, then find_irreducible_pentanomial):
/// per degree, the first three entries are the Auto form (the smallest
/// trinomial's t followed by two zeros, or the pentanomial's t3, t2, t1
/// when no trinomial exists) and the last three the forced pentanomial
/// (zeros below degree 4, where none is searched).  A table instead of a
/// first-use search: where no trinomial exists the search runs a Rabin test
/// on every trinomial before the first pentanomial (255 of them for degree
/// 256), which every process would pay on its first generation.  The
/// benchgen tests re-check every entry.
constexpr std::uint8_t kMiddleTerms[][6] = {
    {1, 0, 0, 0, 0, 0}, {1, 0, 0, 0, 0, 0}, {1, 0, 0, 3, 2, 1}, // n = 2..4
    {2, 0, 0, 3, 2, 1}, {1, 0, 0, 4, 2, 1}, {1, 0, 0, 3, 2, 1}, // n = 5..7
    {4, 3, 1, 4, 3, 1}, {1, 0, 0, 4, 2, 1}, {3, 0, 0, 3, 2, 1}, // n = 8..10
    {2, 0, 0, 4, 2, 1}, {3, 0, 0, 4, 2, 1}, {4, 3, 1, 4, 3, 1}, // n = 11..13
    {5, 0, 0, 5, 3, 1}, {1, 0, 0, 4, 2, 1}, {5, 3, 1, 5, 3, 1}, // n = 14..16
    {3, 0, 0, 3, 2, 1}, {3, 0, 0, 5, 2, 1}, {5, 2, 1, 5, 2, 1}, // n = 17..19
    {3, 0, 0, 3, 2, 1}, {2, 0, 0, 5, 2, 1}, {1, 0, 0, 5, 2, 1}, // n = 20..22
    {5, 0, 0, 5, 3, 1}, {4, 3, 1, 4, 3, 1}, {3, 0, 0, 3, 2, 1}, // n = 23..25
    {4, 3, 1, 4, 3, 1}, {5, 2, 1, 5, 2, 1}, {1, 0, 0, 3, 2, 1}, // n = 26..28
    {2, 0, 0, 4, 2, 1}, {1, 0, 0, 6, 4, 1}, {3, 0, 0, 3, 2, 1}, // n = 29..31
    {7, 3, 2, 7, 3, 2}, {10, 0, 0, 6, 3, 1}, {7, 0, 0, 4, 3, 1}, // n = 32..34
    {2, 0, 0, 8, 3, 2}, {9, 0, 0, 5, 4, 2}, {6, 4, 1, 6, 4, 1}, // n = 35..37
    {6, 5, 1, 6, 5, 1}, {4, 0, 0, 5, 3, 2}, {5, 4, 3, 5, 4, 3}, // n = 38..40
    {3, 0, 0, 3, 2, 1}, {7, 0, 0, 5, 2, 1}, {6, 4, 3, 6, 4, 3}, // n = 41..43
    {5, 0, 0, 5, 4, 1}, {4, 3, 1, 4, 3, 1}, {1, 0, 0, 5, 4, 3}, // n = 44..46
    {5, 0, 0, 5, 4, 1}, {5, 3, 2, 5, 3, 2}, {9, 0, 0, 6, 5, 4}, // n = 47..49
    {4, 3, 2, 4, 3, 2}, {6, 3, 1, 6, 3, 1}, {3, 0, 0, 3, 2, 1}, // n = 50..52
    {6, 2, 1, 6, 2, 1}, {9, 0, 0, 8, 6, 3}, {7, 0, 0, 6, 2, 1}, // n = 53..55
    {7, 4, 2, 7, 4, 2}, {4, 0, 0, 5, 3, 2}, {19, 0, 0, 6, 5, 1}, // n = 56..58
    {7, 4, 2, 7, 4, 2}, {1, 0, 0, 5, 4, 2}, {5, 2, 1, 5, 2, 1}, // n = 59..61
    {29, 0, 0, 6, 5, 3}, {1, 0, 0, 5, 4, 1}, {4, 3, 1, 4, 3, 1}, // n = 62..64
    {18, 0, 0, 4, 3, 1}, {3, 0, 0, 4, 2, 1}, {5, 2, 1, 5, 2, 1}, // n = 65..67
    {9, 0, 0, 7, 5, 1}, {6, 5, 2, 6, 5, 2}, {5, 3, 1, 5, 3, 1}, // n = 68..70
    {6, 0, 0, 5, 3, 1}, {10, 9, 3, 10, 9, 3}, {25, 0, 0, 4, 3, 2}, // n = 71..73
    {35, 0, 0, 6, 2, 1}, {6, 3, 1, 6, 3, 1}, {21, 0, 0, 5, 4, 2}, // n = 74..76
    {6, 5, 2, 6, 5, 2}, {6, 5, 3, 6, 5, 3}, {9, 0, 0, 4, 3, 2}, // n = 77..79
    {9, 4, 2, 9, 4, 2}, {4, 0, 0, 6, 3, 2}, {8, 3, 1, 8, 3, 1}, // n = 80..82
    {7, 4, 2, 7, 4, 2}, {5, 0, 0, 5, 4, 1}, {8, 2, 1, 8, 2, 1}, // n = 83..85
    {21, 0, 0, 6, 5, 2}, {13, 0, 0, 7, 5, 1}, {7, 6, 2, 7, 6, 2}, // n = 86..88
    {38, 0, 0, 6, 5, 3}, {27, 0, 0, 5, 3, 2}, {8, 5, 1, 8, 5, 1}, // n = 89..91
    {21, 0, 0, 6, 5, 2}, {2, 0, 0, 6, 3, 2}, {21, 0, 0, 6, 5, 1}, // n = 92..94
    {11, 0, 0, 7, 5, 1}, {10, 9, 6, 10, 9, 6}, {6, 0, 0, 6, 4, 2}, // n = 95..97
    {11, 0, 0, 7, 4, 3}, {6, 3, 1, 6, 3, 1}, {15, 0, 0, 6, 5, 2}, // n = 98..100
    {7, 6, 1, 7, 6, 1}, {29, 0, 0, 6, 5, 3}, {9, 0, 0, 9, 4, 1}, // n = 101..103
    {4, 3, 1, 4, 3, 1}, {4, 0, 0, 7, 2, 1}, {15, 0, 0, 6, 5, 1}, // n = 104..106
    {9, 7, 4, 9, 7, 4}, {17, 0, 0, 6, 4, 1}, {5, 4, 2, 5, 4, 2}, // n = 107..109
    {33, 0, 0, 6, 4, 1}, {10, 0, 0, 7, 4, 2}, {5, 4, 3, 5, 4, 3}, // n = 110..112
    {9, 0, 0, 5, 3, 2}, {5, 3, 2, 5, 3, 2}, {8, 7, 5, 8, 7, 5}, // n = 113..115
    {4, 2, 1, 4, 2, 1}, {5, 2, 1, 5, 2, 1}, {33, 0, 0, 6, 5, 2}, // n = 116..118
    {8, 0, 0, 9, 7, 4}, {4, 3, 1, 4, 3, 1}, {18, 0, 0, 8, 5, 1}, // n = 119..121
    {6, 2, 1, 6, 2, 1}, {2, 0, 0, 8, 4, 1}, {19, 0, 0, 7, 6, 5}, // n = 122..124
    {7, 6, 5, 7, 6, 5}, {21, 0, 0, 7, 4, 2}, {1, 0, 0, 7, 3, 1}, // n = 125..127
    {7, 2, 1, 7, 2, 1}, {5, 0, 0, 5, 4, 1}, {3, 0, 0, 3, 2, 1}, // n = 128..130
    {8, 3, 2, 8, 3, 2}, {17, 0, 0, 8, 5, 4}, {9, 8, 2, 9, 8, 2}, // n = 131..133
    {57, 0, 0, 7, 5, 1}, {11, 0, 0, 6, 4, 3}, {5, 3, 2, 5, 3, 2}, // n = 134..136
    {21, 0, 0, 11, 4, 1}, {8, 7, 1, 8, 7, 1}, {8, 5, 3, 8, 5, 3}, // n = 137..139
    {15, 0, 0, 6, 4, 1}, {10, 4, 1, 10, 4, 1}, {21, 0, 0, 10, 3, 1}, // n = 140..142
    {5, 3, 2, 5, 3, 2}, {7, 4, 2, 7, 4, 2}, {52, 0, 0, 6, 5, 1}, // n = 143..145
    {71, 0, 0, 5, 3, 2}, {14, 0, 0, 11, 4, 2}, {27, 0, 0, 7, 5, 3}, // n = 146..148
    {10, 9, 7, 10, 9, 7}, {53, 0, 0, 5, 4, 2}, {3, 0, 0, 3, 2, 1}, // n = 149..151
    {6, 3, 2, 6, 3, 2}, {1, 0, 0, 6, 5, 3}, {15, 0, 0, 7, 6, 5}, // n = 152..154
    {62, 0, 0, 7, 5, 4}, {9, 0, 0, 6, 5, 3}, {6, 5, 2, 6, 5, 2}, // n = 155..157
    {8, 6, 5, 8, 6, 5}, {31, 0, 0, 8, 7, 4}, {5, 3, 2, 5, 3, 2}, // n = 158..160
    {18, 0, 0, 6, 3, 2}, {27, 0, 0, 8, 7, 4}, {7, 6, 3, 7, 6, 3}, // n = 161..163
    {10, 8, 7, 10, 8, 7}, {9, 8, 3, 9, 8, 3}, {37, 0, 0, 6, 5, 1}, // n = 164..166
    {6, 0, 0, 6, 4, 2}, {15, 3, 2, 15, 3, 2}, {34, 0, 0, 8, 6, 5}, // n = 167..169
    {11, 0, 0, 6, 3, 2}, {6, 5, 2, 6, 5, 2}, {1, 0, 0, 7, 6, 5}, // n = 170..172
    {8, 5, 2, 8, 5, 2}, {13, 0, 0, 9, 3, 2}, {6, 0, 0, 6, 4, 2}, // n = 173..175
    {11, 3, 2, 11, 3, 2}, {8, 0, 0, 5, 3, 2}, {31, 0, 0, 8, 7, 2}, // n = 176..178
    {4, 2, 1, 4, 2, 1}, {3, 0, 0, 6, 4, 3}, {7, 6, 1, 7, 6, 1}, // n = 179..181
    {81, 0, 0, 8, 6, 1}, {56, 0, 0, 8, 7, 4}, {9, 8, 7, 9, 8, 7}, // n = 182..184
    {24, 0, 0, 8, 3, 1}, {11, 0, 0, 9, 8, 6}, {7, 6, 5, 7, 6, 5}, // n = 185..187
    {6, 5, 2, 6, 5, 2}, {6, 5, 2, 6, 5, 2}, {8, 7, 6, 8, 7, 6}, // n = 188..190
    {9, 0, 0, 7, 6, 4}, {7, 2, 1, 7, 2, 1}, {15, 0, 0, 9, 7, 4}, // n = 191..193
    {87, 0, 0, 4, 3, 2}, {8, 3, 2, 8, 3, 2}, {3, 0, 0, 3, 2, 1}, // n = 194..196
    {9, 4, 2, 9, 4, 2}, {9, 0, 0, 6, 5, 3}, {34, 0, 0, 9, 4, 1}, // n = 197..199
    {5, 3, 2, 5, 3, 2}, {14, 0, 0, 6, 3, 2}, {55, 0, 0, 7, 6, 4}, // n = 200..202
    {8, 7, 1, 8, 7, 1}, {27, 0, 0, 5, 4, 2}, {9, 5, 2, 9, 5, 2}, // n = 203..205
    {10, 9, 5, 10, 9, 5}, {43, 0, 0, 9, 6, 1}, {9, 3, 1, 9, 3, 1}, // n = 206..208
    {6, 0, 0, 5, 3, 2}, {7, 0, 0, 9, 4, 3}, {11, 10, 8, 11, 10, 8}, // n = 209..211
    {105, 0, 0, 7, 4, 3}, {6, 5, 2, 6, 5, 2}, {73, 0, 0, 5, 3, 1}, // n = 212..214
    {23, 0, 0, 6, 5, 3}, {7, 3, 1, 7, 3, 1}, {45, 0, 0, 6, 5, 4}, // n = 215..217
    {11, 0, 0, 8, 7, 1}, {8, 4, 1, 8, 4, 1}, {7, 0, 0, 11, 8, 6}, // n = 218..220
    {8, 6, 2, 8, 6, 2}, {5, 4, 2, 5, 4, 2}, {33, 0, 0, 5, 4, 2}, // n = 221..223
    {9, 8, 3, 9, 8, 3}, {32, 0, 0, 10, 5, 1}, {10, 7, 3, 10, 7, 3}, // n = 224..226
    {10, 9, 4, 10, 9, 4}, {113, 0, 0, 8, 2, 1}, {10, 4, 1, 10, 4, 1}, // n = 227..229
    {8, 7, 6, 8, 7, 6}, {26, 0, 0, 7, 4, 2}, {9, 4, 2, 9, 4, 2}, // n = 230..232
    {74, 0, 0, 9, 4, 1}, {31, 0, 0, 9, 7, 3}, {9, 6, 1, 9, 6, 1}, // n = 233..235
    {5, 0, 0, 5, 4, 1}, {7, 4, 1, 7, 4, 1}, {73, 0, 0, 5, 2, 1}, // n = 236..238
    {36, 0, 0, 12, 7, 1}, {8, 5, 3, 8, 5, 3}, {70, 0, 0, 9, 8, 4}, // n = 239..241
    {95, 0, 0, 11, 6, 1}, {8, 5, 1, 8, 5, 1}, {111, 0, 0, 9, 4, 1}, // n = 242..244
    {6, 4, 1, 6, 4, 1}, {11, 2, 1, 11, 2, 1}, {82, 0, 0, 9, 4, 2}, // n = 245..247
    {15, 14, 10, 15, 14, 10}, {35, 0, 0, 7, 4, 1}, {103, 0, 0, 10, 5, 3}, // n = 248..250
    {7, 4, 2, 7, 4, 2}, {15, 0, 0, 10, 8, 1}, {46, 0, 0, 7, 3, 2}, // n = 251..253
    {7, 2, 1, 7, 2, 1}, {52, 0, 0, 5, 3, 2}, {10, 5, 2, 10, 5, 2}, // n = 254..256
};
static_assert(std::size(kMiddleTerms) == kTableMaxDegree - kTableMinDegree + 1);

/// The table's terms for (n, form), or empty when the table has none.
std::vector<int> tabulated_middle_terms(int n, bool force_pentanomial) {
    if (n < kTableMinDegree || n > kTableMaxDegree) return {};
    const std::uint8_t* row = kMiddleTerms[n - kTableMinDegree] + (force_pentanomial ? 3 : 0);
    std::vector<int> terms;
    terms.reserve(3);
    for (int k = 0; k < 3 && row[k] != 0; ++k) terms.push_back(row[k]);
    return terms;
}

} // namespace

std::vector<int> irreducible_middle_terms(int n, bool force_pentanomial) {
    if (std::vector<int> terms = tabulated_middle_terms(n, force_pentanomial); !terms.empty()) {
        return terms;
    }

    // Past the table: search once per degree and form, memoized.
    // The memo is process-wide shared state; a struct (rather than two
    // bare statics) lets the capability analysis tie the map to its mutex.
    struct TermCache {
        util::Mutex mutex;
        std::map<std::pair<int, bool>, std::vector<int>> terms
            LEQA_GUARDED_BY(mutex);
    };
    static TermCache cache;
    {
        const util::MutexLock lock(cache.mutex);
        const auto it = cache.terms.find({n, force_pentanomial});
        if (it != cache.terms.end()) return it->second;
    }

    std::vector<int> terms;
    if (!force_pentanomial) {
        if (const auto t = find_irreducible_trinomial(n)) {
            terms = {*t};
        }
    }
    if (terms.empty()) {
        const auto penta = find_irreducible_pentanomial(n);
        LEQA_REQUIRE(penta.has_value(),
                     "no irreducible trinomial/pentanomial of degree " + std::to_string(n));
        terms = *penta;
    }

    const util::MutexLock lock(cache.mutex);
    cache.terms[{n, force_pentanomial}] = terms;
    return terms;
}

} // namespace leqa::mathx
