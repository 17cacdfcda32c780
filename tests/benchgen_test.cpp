// Tests for the benchmark generators: GF(2^n) multipliers (functional and
// count-exact), VBE adders (functional), surrogates (count-exact), and the
// paper suite table.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "benchgen/adders.h"
#include "benchgen/gf2_mult.h"
#include "benchgen/suite.h"
#include "benchgen/surrogate.h"
#include "mathx/gf2poly.h"
#include "sim/classical.h"
#include "synth/ft_synth.h"
#include "util/error.h"
#include "util/rng.h"

namespace lb = leqa::benchgen;
namespace lc = leqa::circuit;
namespace lm = leqa::mathx;
namespace ls = leqa::sim;
using leqa::util::InputError;

// ---------------------------------------------------------------- gf2poly --

TEST(Gf2Poly, BasicArithmetic) {
    const auto p = lm::Gf2Poly::from_exponents({3, 1, 0}); // x^3 + x + 1
    EXPECT_EQ(p.degree(), 3);
    EXPECT_TRUE(p.coeff(0));
    EXPECT_FALSE(p.coeff(2));
    EXPECT_EQ(p.to_string(), "x^3 + x + 1");

    auto q = lm::Gf2Poly::monomial(1);
    q ^= lm::Gf2Poly::monomial(1);
    EXPECT_TRUE(q.is_zero());
    EXPECT_EQ(q.degree(), -1);
}

TEST(Gf2Poly, ShiftAndMod) {
    const auto p = lm::Gf2Poly::from_exponents({3, 1, 0});
    const auto x4 = lm::Gf2Poly::monomial(4);
    // x^4 mod (x^3+x+1) = x^2 + x.
    EXPECT_EQ(x4.mod(p), lm::Gf2Poly::from_exponents({2, 1}));
    EXPECT_EQ(lm::Gf2Poly::monomial(2).shifted(3), lm::Gf2Poly::monomial(5));
}

TEST(Gf2Poly, MulmodAgainstHand) {
    const auto p = lm::Gf2Poly::from_exponents({3, 1, 0});
    // In GF(8) with x^3 = x+1:  x^2 * x^2 = x^4 = x^2 + x.
    const auto x2 = lm::Gf2Poly::monomial(2);
    EXPECT_EQ(lm::Gf2Poly::mulmod(x2, x2, p), lm::Gf2Poly::from_exponents({2, 1}));
}

TEST(Gf2Poly, GcdBasics) {
    const auto a = lm::Gf2Poly::from_exponents({2});    // x^2
    const auto b = lm::Gf2Poly::from_exponents({1});    // x
    EXPECT_EQ(lm::Gf2Poly::gcd(a, b), lm::Gf2Poly::monomial(1));
}

TEST(Gf2Poly, KnownIrreducibles) {
    EXPECT_TRUE(lm::is_irreducible(lm::Gf2Poly::from_exponents({3, 1, 0})));
    EXPECT_TRUE(lm::is_irreducible(lm::Gf2Poly::from_exponents({8, 4, 3, 1, 0}))); // AES
    EXPECT_FALSE(lm::is_irreducible(lm::Gf2Poly::from_exponents({4, 2, 0}))); // (x^2+x+1)^2
    EXPECT_FALSE(lm::is_irreducible(lm::Gf2Poly::from_exponents({3, 0})));    // x^3+1
    EXPECT_FALSE(lm::is_irreducible(lm::Gf2Poly::from_exponents({3, 1})));    // divisible by x
}

TEST(Gf2Poly, TrinomialSearch) {
    // Degree 20 has the classic trinomial x^20 + x^3 + 1.
    const auto t20 = lm::find_irreducible_trinomial(20);
    ASSERT_TRUE(t20.has_value());
    EXPECT_EQ(*t20, 3);
    // Degrees that are multiples of 8 have no irreducible trinomial.
    EXPECT_FALSE(lm::find_irreducible_trinomial(16).has_value());
    EXPECT_FALSE(lm::find_irreducible_trinomial(64).has_value());
}

TEST(Gf2Poly, PentanomialSearchFindsIrreducible) {
    for (const int n : {16, 19, 50}) {
        const auto penta = lm::find_irreducible_pentanomial(n);
        ASSERT_TRUE(penta.has_value()) << n;
        const auto& t = *penta;
        EXPECT_TRUE(lm::is_irreducible(
            lm::Gf2Poly::from_exponents({n, t[0], t[1], t[2], 0})));
    }
}

TEST(Gf2Poly, MiddleTermsCacheAndForms) {
    const auto tri = lm::irreducible_middle_terms(20, false);
    EXPECT_EQ(tri.size(), 1u);
    const auto penta = lm::irreducible_middle_terms(20, true);
    EXPECT_EQ(penta.size(), 3u);
    // Cached second call must agree.
    EXPECT_EQ(lm::irreducible_middle_terms(20, true), penta);
}

namespace {

/// The search irreducible_middle_terms() was tabulated from.
std::vector<int> searched_middle_terms(int n, bool force_pentanomial) {
    if (!force_pentanomial) {
        if (const auto t = lm::find_irreducible_trinomial(n)) return {*t};
    }
    return *lm::find_irreducible_pentanomial(n);
}

lm::Gf2Poly with_middle_terms(int n, const std::vector<int>& terms) {
    std::vector<int> exponents{n};
    exponents.insert(exponents.end(), terms.begin(), terms.end());
    exponents.push_back(0);
    return lm::Gf2Poly::from_exponents(exponents);
}

} // namespace

TEST(Gf2Poly, TabulatedMiddleTermsAreIrreducibleForEveryDegree) {
    for (int n = 2; n <= 256; ++n) {
        for (const bool penta : {false, true}) {
            if (penta && n < 4) continue; // no pentanomial below degree 4
            const auto terms = lm::irreducible_middle_terms(n, penta);
            ASSERT_TRUE(terms.size() == 1 || terms.size() == 3) << n;
            if (penta) {
                ASSERT_EQ(terms.size(), 3u) << n;
            }
            ASSERT_TRUE(std::is_sorted(terms.rbegin(), terms.rend())) << n;
            ASSERT_TRUE(terms.front() < n && terms.back() >= 1) << n;
            EXPECT_TRUE(lm::is_irreducible(with_middle_terms(n, terms)))
                << "degree " << n << (penta ? " pentanomial" : " auto");
        }
    }
    // Below degree 4 a forced pentanomial is still an error.
    EXPECT_THROW((void)lm::irreducible_middle_terms(3, true), leqa::util::InputError);
}

TEST(Gf2Poly, TabulatedMiddleTermsMatchTheSearch) {
    std::vector<int> degrees;
    for (int n = 4; n <= 64; ++n) degrees.push_back(n);
    for (const auto& entry : lb::paper_suite()) {
        if (entry.kind == lb::BenchmarkKind::Gf2Mult) degrees.push_back(entry.size_parameter);
    }
    for (const int n : degrees) {
        for (const bool penta : {false, true}) {
            EXPECT_EQ(lm::irreducible_middle_terms(n, penta), searched_middle_terms(n, penta))
                << "degree " << n << (penta ? " pentanomial" : " auto");
        }
    }
    EXPECT_EQ(lm::irreducible_middle_terms(2, false), searched_middle_terms(2, false));
    EXPECT_EQ(lm::irreducible_middle_terms(3, false), searched_middle_terms(3, false));
}

TEST(Gf2Poly, DegreesPastTheTableStillSearch) {
    const auto terms = lm::irreducible_middle_terms(257, false);
    EXPECT_EQ(terms, searched_middle_terms(257, false));
    EXPECT_TRUE(lm::is_irreducible(with_middle_terms(257, terms)));
}

// --------------------------------------------------------------- gf2 mult --

TEST(Gf2Mult, CountsMatchClosedForm) {
    for (const int n : {4, 8, 16}) {
        lb::Gf2MultSpec spec;
        spec.n = n;
        spec.form = lb::Gf2PolyForm::Auto;
        const auto circ = lb::gf2_mult(spec);
        EXPECT_EQ(circ.num_qubits(), static_cast<std::size_t>(3 * n));
        const auto counts = circ.counts();
        EXPECT_EQ(counts.of(lc::GateKind::Toffoli), static_cast<std::size_t>(n) * n);
    }
}

TEST(Gf2Mult, PaperOpCountsExact) {
    // After FT synthesis the suite's gf2 entries must match Table 3 exactly.
    struct Case { int n; std::size_t middle; std::size_t ops; };
    const Case cases[] = {
        {16, 3, 3885}, {18, 3, 4911}, {19, 3, 5469}, {20, 1, 6019},
        {50, 3, 37647}, {64, 3, 61629}, {100, 3, 150297}, {128, 3, 246141},
        {256, 3, 983805},
    };
    for (const auto& c : cases) {
        EXPECT_EQ(lb::gf2_mult_ft_op_count(c.n, c.middle), c.ops) << "n=" << c.n;
    }
}

TEST(Gf2Mult, FunctionalOnRandomInputs) {
    leqa::util::Rng rng(2024);
    for (const int n : {4, 6, 8}) {
        lb::Gf2MultSpec spec;
        spec.n = n;
        spec.form = lb::Gf2PolyForm::Auto;
        const auto circ = lb::gf2_mult(spec);
        for (int trial = 0; trial < 20; ++trial) {
            const std::uint64_t a = rng.next() & ((1ULL << n) - 1);
            const std::uint64_t b = rng.next() & ((1ULL << n) - 1);
            ls::BasisState state(circ.num_qubits());
            state.set_slice(0, n, a);
            state.set_slice(static_cast<lc::Qubit>(n), n, b);
            ls::run_classical(circ, state);
            // a register preserved.
            EXPECT_EQ(state.slice(0, n), a);
            // c register holds the modular product.
            EXPECT_EQ(state.slice(static_cast<lc::Qubit>(2 * n), n),
                      lb::gf2_mult_reference(n, spec.form, a, b))
                << "n=" << n << " a=" << a << " b=" << b;
            // b register holds the documented residue b * x^(n-1) mod p,
            // cyclically relabeled: physical wire j carries coefficient
            // (j + n - 1) mod n (the n-1 gate-free rotations).
            const std::uint64_t residue = lb::gf2_mult_b_residue(n, spec.form, b);
            std::uint64_t physical = 0;
            for (int j = 0; j < n; ++j) {
                if ((residue >> ((j + n - 1) % n)) & 1ULL) physical |= 1ULL << j;
            }
            EXPECT_EQ(state.slice(static_cast<lc::Qubit>(n), n), physical);
        }
    }
}

TEST(Gf2Mult, AccumulatesIntoC) {
    // c starts non-zero: result must be c0 XOR a*b (the circuit adds).
    const int n = 4;
    lb::Gf2MultSpec spec;
    spec.n = n;
    spec.form = lb::Gf2PolyForm::Auto;
    const auto circ = lb::gf2_mult(spec);
    ls::BasisState state(circ.num_qubits());
    state.set_slice(0, n, 0b0111);
    state.set_slice(n, n, 0b1010);
    state.set_slice(2 * n, n, 0b1111);
    ls::run_classical(circ, state);
    EXPECT_EQ(state.slice(2 * n, n),
              0b1111ULL ^ lb::gf2_mult_reference(n, spec.form, 0b0111, 0b1010));
}

TEST(Gf2Mult, TrinomialFormRejectsImpossibleDegrees) {
    lb::Gf2MultSpec spec;
    spec.n = 16; // no irreducible trinomial of degree 16
    spec.form = lb::Gf2PolyForm::Trinomial;
    EXPECT_THROW((void)lb::gf2_mult(spec), InputError);
}

// ------------------------------------------------------------------ adder --

TEST(VbeAdder, FunctionalOnAllSmallInputs) {
    for (const int n : {1, 2, 3, 4}) {
        const auto circ = lb::vbe_adder(n);
        EXPECT_EQ(circ.num_qubits(), static_cast<std::size_t>(3 * n));
        const std::uint64_t limit = 1ULL << n;
        for (std::uint64_t a = 0; a < limit; ++a) {
            for (std::uint64_t b = 0; b < limit; ++b) {
                ls::BasisState state(circ.num_qubits());
                state.set_slice(0, n, a);
                state.set_slice(static_cast<lc::Qubit>(n), n, b);
                ls::run_classical(circ, state);
                EXPECT_EQ(state.slice(0, n), a) << "a must be preserved";
                EXPECT_EQ(state.slice(static_cast<lc::Qubit>(n), n), (a + b) % limit)
                    << "n=" << n << " a=" << a << " b=" << b;
                EXPECT_EQ(state.slice(static_cast<lc::Qubit>(2 * n), n), 0u)
                    << "carries must be restored";
            }
        }
    }
}

TEST(VbeAdder, FunctionalRandomWide) {
    leqa::util::Rng rng(31415);
    const int n = 16;
    const auto circ = lb::vbe_adder(n);
    for (int trial = 0; trial < 30; ++trial) {
        const std::uint64_t a = rng.next() & 0xFFFF;
        const std::uint64_t b = rng.next() & 0xFFFF;
        ls::BasisState state(circ.num_qubits());
        state.set_slice(0, n, a);
        state.set_slice(n, n, b);
        ls::run_classical(circ, state);
        EXPECT_EQ(state.slice(n, n), (a + b) & 0xFFFF);
        EXPECT_EQ(state.slice(2 * n, n), 0u);
    }
}

TEST(VbeAdder, CountsMatchClosedForm) {
    for (const int n : {2, 8, 20}) {
        const auto circ = lb::vbe_adder(n);
        const auto counts = circ.counts();
        const auto expected = lb::vbe_adder_counts(n);
        EXPECT_EQ(counts.of(lc::GateKind::Toffoli), expected.toffolis);
        EXPECT_EQ(counts.of(lc::GateKind::Cnot), expected.cnots);
    }
}

// -------------------------------------------------------------- surrogate --

TEST(Surrogate, HitsExactTargets) {
    lb::SurrogateSpec spec;
    spec.name = "hwb15ps";
    spec.base_qubits = 15;
    spec.target_qubits = 47;
    spec.target_ft_ops = 3885;
    spec.seed = 7;
    const auto circ = lb::surrogate_benchmark(spec);
    const auto ft = leqa::synth::ft_synthesize(circ);
    EXPECT_EQ(ft.circuit.num_qubits(), 47u);
    EXPECT_EQ(ft.circuit.size(), 3885u);
    EXPECT_TRUE(ft.circuit.is_ft());
}

TEST(Surrogate, DeterministicPerSeed) {
    lb::SurrogateSpec spec;
    spec.name = "s";
    spec.base_qubits = 20;
    spec.target_qubits = 83;
    spec.target_ft_ops = 6395;
    const auto a = lb::surrogate_benchmark(spec);
    const auto b = lb::surrogate_benchmark(spec);
    EXPECT_TRUE(a.same_structure(b));
    spec.seed = 99;
    const auto c = lb::surrogate_benchmark(spec);
    EXPECT_FALSE(a.same_structure(c));
}

TEST(Surrogate, RejectsInfeasibleTargets) {
    lb::SurrogateSpec spec;
    spec.name = "bad";
    spec.base_qubits = 20;
    spec.target_qubits = 10; // below base
    spec.target_ft_ops = 100;
    EXPECT_THROW((void)lb::surrogate_benchmark(spec), InputError);

    spec.target_qubits = 200;
    spec.target_ft_ops = 10; // cannot even pay for the ancilla chains
    EXPECT_THROW((void)lb::surrogate_benchmark(spec), InputError);
}

// ------------------------------------------------------------------ suite --

TEST(Suite, HasEighteenEntriesInPaperOrder) {
    const auto& suite = lb::paper_suite();
    ASSERT_EQ(suite.size(), 18u);
    EXPECT_EQ(suite.front().name, "8bitadder");
    EXPECT_EQ(suite.back().name, "gf2^256mult");
    // Table 3 is (approximately) sorted by operation count; the paper
    // itself has two near-ties out of order (hwb16ps, mod1048576adder).
    for (std::size_t i = 0; i + 1 < suite.size(); ++i) {
        EXPECT_LE(suite[i].paper_ops, suite[i + 1].paper_ops + 1000) << suite[i].name;
    }
}

TEST(Suite, LookupAndValidation) {
    EXPECT_TRUE(lb::has_benchmark("gf2^16mult"));
    EXPECT_FALSE(lb::has_benchmark("nope"));
    EXPECT_EQ(lb::find_benchmark("ham15").paper_qubits, 146u);
    EXPECT_THROW((void)lb::find_benchmark("nope"), InputError);
}

TEST(Suite, PaperErrorStatisticsMatchAbstract) {
    // The paper reports 2.11% average and < 9% maximum error.
    const auto& suite = lb::paper_suite();
    double total = 0.0;
    double max_error = 0.0;
    for (const auto& b : suite) {
        total += b.paper_error_pct;
        max_error = std::max(max_error, b.paper_error_pct);
    }
    EXPECT_NEAR(total / static_cast<double>(suite.size()), 2.11, 0.01);
    EXPECT_LT(max_error, 9.0);
}

TEST(Suite, GeneratedCountsMatchPaperForExactFamilies) {
    // gf2 multipliers and surrogates must reproduce the published counts
    // exactly; the adder is constructive (counts differ, documented).
    for (const auto& b : lb::paper_suite()) {
        if (b.paper_ops > 50000) continue; // keep the test fast; big sizes
                                           // covered by closed-form test
        const auto ft = lb::make_ft_benchmark(b.name);
        if (b.kind == lb::BenchmarkKind::Adder) {
            EXPECT_EQ(ft.circuit.num_qubits(), b.paper_qubits) << b.name;
            continue;
        }
        EXPECT_EQ(ft.circuit.num_qubits(), b.paper_qubits) << b.name;
        EXPECT_EQ(ft.circuit.size(), b.paper_ops) << b.name;
    }
}

TEST(Suite, Ham3MatchesFigure2) {
    const auto circ = lb::ham3();
    EXPECT_EQ(circ.num_qubits(), 3u);
    const auto ft = leqa::synth::ft_synthesize(circ);
    EXPECT_EQ(ft.circuit.size(), 19u); // the 19 numbered ops of Figure 2(b)
    EXPECT_EQ(ft.circuit.num_qubits(), 3u);
    EXPECT_TRUE(ft.circuit.is_ft());
}
