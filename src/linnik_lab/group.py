"""The unit group Z_q^x with its CRT cyclic decomposition, exact Dirichlet
characters (values are integer angles k/L, L the exponent of the group), real
characters and index-2 subgroups, and Fourier analysis / convolution on the
group.

Every unit a has a discrete-log vector x = (x_1, ..., x_k) in the grid
Z_{d_1} x ... x Z_{d_k}; a character is indexed by its dual vector t on the
same grid and read by its row, t raveled in C order (row 0 is principal).
Transforms are n-dimensional FFTs on that grid, O(phi log phi) time and
O(phi) memory.  Exact convolution adds dlog vectors componentwise mod d_i:
one float64 correlation on one axis, exact while integer sums stay below
2^53, else one factor's window view (its grid tiled twice along each axis)
contracted against the other's support, O(phi min(|supp f|, |supp g|))
time and O(2^k phi) memory for k cyclic components.

Every component has even order, so real character j (t_i = d_i/2 where bit
i of j is set) is chi_j(a) = (-1)^popcount(j & code(a)), code(a) the packed
parities x_i & 1: every real character at any integers is two gathers.

Normalizations, fixed once: the Fourier transform uses the expectation
E_a over units; convolution uses plain counting sums (no 1/phi factor).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import arith
from .errors import DomainError

_Q_LIMIT = 10**7


@dataclass(frozen=True)
class CyclicComponent:
    modulus: int   # the prime power it lives modulo
    generator: int
    order: int


def _primitive_root_mod_p(p: int) -> int:
    if p == 2:
        return 1
    fac = arith.factorize(p - 1).primes
    g = 2
    while True:
        if all(pow(g, (p - 1) // r, p) != 1 for r in fac):
            return g
        g += 1


def _generator_mod_prime_power(p: int, e: int) -> int:
    g = _primitive_root_mod_p(p)
    if e == 1:
        return g
    # g lifts to p^e unless g^(p-1) = 1 mod p^2, in which case g+p works
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _geometric(g: int, n: int, m: int) -> np.ndarray:
    """g^k mod m for k < n, one product at a time."""
    out = np.empty(n, dtype=np.int64)
    x = 1
    for k in range(n):
        out[k] = x
        x = x * g % m
    return out


def _parity_bits(comp: CyclicComponent) -> np.ndarray:
    """x & 1 for x the dlog of a unit in comp, as an int8 table over the
    residues mod r | comp.modulus that decide it: for an odd p^e, whether
    a is a non-square mod p (r = p; g is a primitive root mod p, whose
    order p - 1 is even); for 4 and for <-1> of 2^e, a = 3 mod 4; for <5>
    of 2^e, a = 3, 5 mod 8 (+-5^x is +-5 mod 8 for odd x, +-1 for even x).
    Entries off the units are left for the caller to overwrite."""
    m = comp.modulus
    if m % 2:
        p = m // math.gcd(m, comp.order)
        bits = np.ones(p, dtype=np.int8)
        k = np.arange((p + 1) // 2, dtype=np.int64)
        bits[k * k % p] = 0
        return bits
    if comp.generator == 5:
        return np.array([0, 0, 0, 1, 0, 1, 0, 0], dtype=np.int8)
    return np.array([0, 0, 0, 1], dtype=np.int8)


# dlog-table entries filled per step; bounds the construction peak
_DLOG_CHUNK = 1 << 19


class UnitGroup:
    """Z_q^x with component-wise discrete logarithm tables.

    For 2^e with e >= 3 the 2-part is split as <-1> x <5>.  Immutable:
    construction finds the components only; the dlog tables and every other
    table are cached properties built on first use.
    """

    def __init__(self, q: int):
        if q < 1:
            raise DomainError("q must be >= 1")
        if q > _Q_LIMIT:
            raise DomainError(f"q exceeds the enumeration-scale bound {_Q_LIMIT}")
        self.q = q
        self.phi = arith.euler_phi(q)
        fac = arith.factorize(q)
        # read by the residue tables, which need no further factorize call
        self.prime_divisors = fac.primes
        comps: list[CyclicComponent] = []
        for p, e in fac.factors:
            m = p**e
            if p == 2:
                if e == 1:
                    continue
                if e == 2:
                    comps.append(CyclicComponent(4, 3, 2))
                else:
                    comps.append(CyclicComponent(m, m - 1, 2))
                    comps.append(CyclicComponent(m, 5, 2 ** (e - 2)))
            else:
                g = _generator_mod_prime_power(p, e)
                comps.append(CyclicComponent(m, g, arith.euler_phi(m)))
        self.components = tuple(comps)
        order_prod = math.prod(c.order for c in comps) if comps else 1
        if order_prod != self.phi:
            raise AssertionError("component orders do not multiply to phi(q)")
        # the dlog grid; a trivial group still gets one cell for its one unit
        self.grid_shape = tuple(c.order for c in comps) or (1,)
        self.angle_modulus = math.lcm(*(c.order for c in comps)) if comps else 1

    # -- construction ------------------------------------------------------

    @cached_property
    def _dlog_tables(self) -> list[np.ndarray]:
        """One table per component over the residues of its prime power m:
        the component's exponent, -1 off the units.  The components of one m
        (<-1> x <5> of 2^e) are filled together: each element of the leading
        ones times the last one's powers g^(jB + k) = g^(jB) g^k, B = ceil(sqrt(order)),
        in chunks of ~_DLOG_CHUNK; factors < m <= _Q_LIMIT, so products fit int64."""
        tables = []
        for m, same in itertools.groupby(self.components, key=lambda c: c.modulus):
            *head, last = same
            # each element c of the leading components, with its exponents
            lead = [(xs, math.prod(pow(h.generator, x, m) for h, x in zip(head, xs)) % m)
                    for xs in itertools.product(*(range(h.order) for h in head))]
            B = math.isqrt(last.order - 1) + 1
            big = _geometric(pow(last.generator, B, m), -(-last.order // B), m)
            small = _geometric(last.generator, B, m)
            rows = max(1, _DLOG_CHUNK // B)
            ts = [np.full(m, -1, dtype=np.int32) for _ in range(len(head) + 1)]
            for j in range(0, len(big), rows):
                el = np.multiply.outer(big[j:j + rows], small)
                np.remainder(el, m, out=el)
                x = np.arange(j * B, min((j + rows) * B, last.order), dtype=np.int32)
                el = el.reshape(-1)[:len(x)]
                for xs, c in lead:
                    at = el if c == 1 else el * c % m
                    for t, v in zip(ts, (*xs, x)):
                        t[at] = v
                del el, x, at, v     # freed before the next chunk is built
            tables.extend(ts)
        return tables

    # -- basic queries -----------------------------------------------------

    @cached_property
    def units(self) -> np.ndarray:
        """The residues 0 <= a < q prime to q (just 0 when q = 1)."""
        mask = np.ones(self.q, dtype=bool)
        for p in self.prime_divisors:
            mask[::p] = False
        return np.flatnonzero(mask)

    @cached_property
    def unit_pos(self) -> np.ndarray:
        """Position of each residue in self.units, -1 off the units."""
        pos = np.full(self.q, -1, dtype=np.int64)
        pos[self.units] = np.arange(len(self.units))
        return pos

    def is_unit(self, n: int) -> bool:
        return math.gcd(n % self.q if self.q > 1 else 0, self.q) == 1

    def canon(self, n: int) -> int:
        """Canonical residue of a unit n, raising off the units."""
        a = n % self.q
        if not self.is_unit(a):
            raise DomainError(f"{n} is not a unit mod {self.q}")
        return a

    def dlog(self, n: int) -> tuple[int, ...]:
        a = self.canon(n)
        out = []
        for comp, table in zip(self.components, self._dlog_tables):
            v = int(table[a % comp.modulus])
            if v < 0:
                raise AssertionError("dlog table miss")
            out.append(v)
        return tuple(out)

    # -- the dlog grid -------------------------------------------------------

    @cached_property
    def unit_grid(self) -> np.ndarray:
        """Flat C-order position of each unit on the dlog grid (d_1, ..., d_k),
        aligned with self.units."""
        pos = np.zeros(len(self.units), dtype=np.int64)
        for comp, table in zip(self.components, self._dlog_tables):
            pos = pos * comp.order + table[self.units % comp.modulus]
        return pos

    def to_grid(self, vec: np.ndarray) -> np.ndarray:
        """Scatter a vector aligned with self.units onto the dlog grid."""
        grid = np.zeros(self.phi, dtype=vec.dtype)
        grid[self.unit_grid] = vec
        return grid.reshape(self.grid_shape)

    def from_grid(self, grid: np.ndarray) -> np.ndarray:
        """Gather a function on the dlog grid back into unit order."""
        return grid.reshape(-1)[self.unit_grid]

    @cached_property
    def unit_dlogs(self) -> tuple[np.ndarray, ...]:
        """Per-component dlog exponents of every unit, aligned with self.units."""
        return np.unravel_index(self.unit_grid, self.grid_shape) if self.components else ()

    @cached_property
    def roots(self) -> np.ndarray:
        """e(k/L) for k = 0..L-1 (L = angle_modulus), exact at k = 0 and L/2."""
        L = self.angle_modulus
        ang = 2 * np.pi * (np.arange(L) / L)
        roots = np.cos(ang) + 1j * np.sin(ang)
        roots[0] = 1
        if L % 2 == 0:
            roots[L // 2] = -1
        return roots

    # -- characters ---------------------------------------------------------

    @cached_property
    def orders(self) -> np.ndarray:
        """The order of each character by row: lcm_c d_c / gcd(d_c, t_c) for
        t the row's dual vector."""
        orders = np.ones(self.phi, dtype=np.int64)
        for t, d in zip(np.unravel_index(np.arange(self.phi), self.grid_shape), self.grid_shape):
            orders = np.lcm(orders, d // np.gcd(d, t))
        return orders

    def real_characters(self) -> tuple["DirichletCharacter", ...]:
        """The characters of order <= 2, t_i in {0, d_i/2}, in row order:
        j = 0 is principal, and bit i of j (the first component most significant) is t_i != 0."""
        choices = [(0, c.order // 2) for c in self.components]
        return tuple(DirichletCharacter(self, v) for v in itertools.product(*choices))

    @cached_property
    def _real_code(self) -> np.ndarray:
        """Per residue: the bits x_i & 1 of a unit's dlogs in real_characters() bit
        order, 2^k off the units, read from residues with no dlog table
        (_parity_bits).  Kept as int16 (2^k reaches 256 below _Q_LIMIT);
        built in int64, whose numpy loops every command already runs (int16
        arithmetic added ~0.13 MB to the peak RSS of `triple`)."""
        code = np.zeros(self.q, dtype=np.int64)
        for comp in self.components:
            bits = _parity_bits(comp)
            code *= 2
            code += np.tile(bits, self.q // len(bits))
        for p in self.prime_divisors:
            code[::p] = 1 << len(self.components)
        return code.astype(np.int16)

    @cached_property
    def _real_matrix(self) -> np.ndarray:
        """S[j, c] = (-1)^popcount(j & c), with a last column of 0 off the units."""
        r = range(1 << len(self.components))
        return np.array([[1 - 2 * ((j & c).bit_count() & 1) for c in r] + [0] for j in r],
                        dtype=np.int8)

    def real_signs(self, ns=None, rows=slice(None)) -> np.ndarray:
        """real_characters()[rows] as int8 in {0, +-1} at the integers ns (at every
        residue when None): one row per character, or one vector for one row."""
        code = self._real_code if ns is None else self._real_code[np.asarray(ns) % self.q]
        return self._real_matrix[rows][..., code]

    def real_sign_counts(self, ns) -> np.ndarray:
        """(2^k, 2): how many of the integers ns each real character sends to +1 and to -1,
        from one histogram of their codes, with no (2^k, len(ns)) block."""
        hist = np.bincount(self._real_code[np.asarray(ns) % self.q],
                           minlength=len(self._real_matrix) + 1)
        return np.stack([(self._real_matrix == s) @ hist for s in (1, -1)], axis=1)

    def real_index(self, chi: "DirichletCharacter") -> int:
        """Position of the real character chi in real_characters()."""
        return sum(1 << i for i, t in enumerate(reversed(chi.vector)) if t)

    def character_index(self, chi: "DirichletCharacter") -> int:
        """The row of chi: its dual vector raveled in C order."""
        pos = 0
        for t, comp in zip(chi.vector, self.components):
            pos = pos * comp.order + t
        return pos

    def character_angles(self, rows) -> np.ndarray:
        """Integer angles of the characters at rows over residues 0..q-1, one
        row per character: chi(n) = e(k/L) with L = angle_modulus, -1 off the
        units.  Row i sums t_c (L / d_c) x_c over the components c, t its
        dual vector and x the dlogs of the units."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        L = self.angle_modulus
        acc = np.zeros((len(rows), self.phi), dtype=np.int64)
        for t, x, c in zip(np.unravel_index(rows, self.grid_shape), self.unit_dlogs,
                           self.components):
            acc += np.multiply.outer(t * (L // c.order), x)
        out = np.full((len(rows), max(self.q, 1)), -1, dtype=np.int64)
        out[:, self.units] = acc % L
        return out

    def dual_vector(self, i: int) -> tuple[int, ...]:
        """The dual vector of row i."""
        out = []
        for comp in reversed(self.components):
            i, t = divmod(int(i), comp.order)
            out.append(t)
        return tuple(reversed(out))

    def inverse_pos(self) -> np.ndarray:
        """Position in self.units of the inverse of each unit (negated dlogs)."""
        xs = self.unit_dlogs
        if not xs:
            return np.zeros(len(self.units), dtype=np.int64)
        inv_grid = np.ravel_multi_index(tuple(-x % d for x, d in zip(xs, self.grid_shape)),
                                        self.grid_shape)
        unit_of_grid = np.empty(self.phi, dtype=np.int64)
        unit_of_grid[self.unit_grid] = np.arange(self.phi)
        return unit_of_grid[inv_grid]


class DirichletCharacter:
    """A character mod q, represented by its dual exponent vector.

    chi(a) = prod_i zeta_{d_i}^{t_i x_i} = e(k/L) where x = dlog(a) and
    k = sum_i t_i x_i (L/d_i) mod L is an exact integer angle, rendered to
    complex on demand.  chi(n) = 0 whenever gcd(n, q) > 1.
    """

    __slots__ = ("group", "vector", "_order")

    def __init__(self, group: UnitGroup, vector: tuple[int, ...]):
        if len(vector) != len(group.components):
            raise DomainError("dual vector length mismatch")
        self.group = group
        self.vector = tuple(int(t) % c.order for t, c in zip(vector, group.components))
        o = 1
        for t, c in zip(self.vector, group.components):
            if t:
                o = math.lcm(o, c.order // math.gcd(c.order, t))
        self._order = o

    def __eq__(self, other):
        return (isinstance(other, DirichletCharacter)
                and self.group.q == other.group.q and self.vector == other.vector)

    def __hash__(self):
        return hash((self.group.q, self.vector))

    def __repr__(self):
        return f"DirichletCharacter(q={self.group.q}, vector={self.vector})"

    def label(self) -> str:
        return f"chi[q={self.group.q};{','.join(map(str, self.vector))}]"

    @property
    def order(self) -> int:
        return self._order

    @property
    def is_principal(self) -> bool:
        return self._order == 1

    @property
    def is_real(self) -> bool:
        return self._order <= 2

    def rotation(self, n: int) -> Fraction | None:
        """Exact angle chi(n) = e^(2 pi i rotation) as Fraction(k, L), L the
        group's angle modulus; None off the units."""
        G = self.group
        a = n % G.q
        if not G.is_unit(a):
            return None
        L = G.angle_modulus
        k = sum(t * x * (L // c.order) for t, x, c in zip(self.vector, G.dlog(a), G.components))
        return Fraction(k % L, L)

    def __call__(self, n: int) -> complex:
        rot = self.rotation(n)
        if rot is None:
            return 0j
        if rot.numerator == 0:
            return 1 + 0j
        if rot.denominator == 2:
            return -1 + 0j
        ang = 2 * math.pi * (rot.numerator / rot.denominator)
        return complex(math.cos(ang), math.sin(ang))

    def angles(self) -> np.ndarray:
        """Integer angles k over residues 0..q-1, chi(n) = e(k/L) with
        L = group.angle_modulus; -1 off the units."""
        return self.group.character_angles(self.group.character_index(self))[0]

    def values(self) -> np.ndarray:
        """chi(n) over residues 0..q-1 (0 off the units)."""
        k = self.angles()
        unit = k >= 0
        out = np.zeros(len(k), dtype=complex)
        out[unit] = self.group.roots[k[unit]]
        return out

    def real_sign_table(self) -> np.ndarray:
        """For real chi: int8 table over residues 0..q-1 with values in {0,+-1}."""
        if not self.is_real:
            raise DomainError("sign table only defined for real characters")
        return self.group.real_signs(None, self.group.real_index(self))

    def kernel(self) -> frozenset[int]:
        G = self.group
        one = (G.real_signs(G.units, G.real_index(self)) == 1 if self.is_real
               else self.angles()[G.units] == 0)
        return frozenset(G.units[one].tolist())


# ---------------------------------------------------------------------------
# module-level helpers (spec surface)

def build_unit_group(q: int) -> UnitGroup:
    """Build Z_q^x, a new group on every call."""
    return UnitGroup(q)


def characters(q: int, G: UnitGroup | None = None) -> tuple[DirichletCharacter, ...]:
    """Every character mod q, in row order, built on each call."""
    G = G or build_unit_group(q)
    return tuple(DirichletCharacter(G, v) for v in
                 itertools.product(*(range(c.order) for c in G.components)))


def real_characters(q: int, G: UnitGroup | None = None) -> list[DirichletCharacter]:
    return list((G or build_unit_group(q)).real_characters())


@dataclass(frozen=True)
class CosetSpec:
    """A coset b H where H is the kernel of the real character psi.

    Membership: a in bH  iff  psi(a) = psi(b).  Index of H is the order of
    psi's image (1 for principal psi, else 2).
    """

    psi: DirichletCharacter
    b: int = 1

    def __post_init__(self):
        if not self.psi.is_real:
            raise DomainError("coset specs are built from real characters")
        if not self.psi.group.is_unit(self.b):
            raise DomainError("coset representative must be a unit")

    @property
    def group(self) -> UnitGroup:
        return self.psi.group

    @property
    def index(self) -> int:
        return self.psi.order

    def member_mask(self, n: np.ndarray) -> np.ndarray:
        G = self.group   # psi(n) = psi(b), which is never 0
        row = G.real_index(self.psi)
        return G.real_signs(n, row) == G.real_signs(self.b, row)

    def members(self) -> frozenset[int]:
        units = self.group.units
        return frozenset(units[self.member_mask(units)].tolist())


# ---------------------------------------------------------------------------
# Fourier analysis on the group

def _as_unit_vector(G: UnitGroup, f, dtype=complex) -> np.ndarray:
    """f, an array aligned with G.units, as a vector; dtype None keeps its dtype."""
    arr = np.asarray(f, dtype=dtype)
    if arr.shape != G.units.shape:
        raise DomainError("array must align with group.units")
    return arr


def transform(G: UnitGroup, f, conj: bool = True) -> np.ndarray:
    """sum_a f(a) conj(chi(a)) (chi(a) when conj is False) for every chi,
    by row: one FFT on the dlog grid."""
    grid = G.to_grid(_as_unit_vector(G, f))
    out = np.fft.fftn(grid) if conj else np.fft.ifftn(grid, norm="forward")
    return out.reshape(-1)


def fourier_inverse(G: UnitGroup, coeffs) -> np.ndarray:
    """f(a) = sum_chi F(chi) chi(a), the inverse of F(chi) = E_a f(a) conj(chi(a))
    (transform(G, f) / phi), by row."""
    c = np.asarray(coeffs, dtype=complex).reshape(G.grid_shape)
    return G.from_grid(np.fft.ifftn(c, norm="forward"))


# The sparser factor's support, as a share of phi, from which one float64
# correlation on a one-axis grid beats gathering the window's rows at that
# support: the correlation wins from 0.05 at q = 211, and they break even
# near 0.1 at q = 1009 and 0.15-0.2 at q = 4001.
_FULL_SHARE = 0.1
# window cells gathered per step below that share: 512 KiB of int64, which
# stays in cache, where 2^20 cells cost 3.2 ns a cell at q = 4001
_GATHER_CELLS = 1 << 16


def _window(grid: np.ndarray) -> np.ndarray:
    """W[x, a] = grid(a - x) for x, a on the grid (shape grid.shape twice),
    indices mod each axis: a zero-copy view of grid tiled twice along each
    axis."""
    k = grid.ndim
    view = sliding_window_view(np.tile(grid, (2,) * k), grid.shape)
    # view[s, a] = grid(s + a), and s = d - x runs d, d - 1, ..., 1
    return view[(slice(None, 0, -1),) * k]


def _float_exact(fv: np.ndarray, gv: np.ndarray, support: int) -> bool:
    """Whether float64 sums f(x) g(y) exactly, f the factor with `support`
    nonzeros: every partial sum is an integer of size at most support
    |f|_inf |g|_inf (a Python int), and float64 adds integers below 2^53
    exactly in any order, FMA or not.  True for non-integer inputs."""
    if np.result_type(fv, gv).kind not in "biu":
        return True
    fm, gm = (max(int(v.max()), -int(v.min())) for v in (fv, gv))
    return support * fm * gm < 2**53


def convolve_group(G: UnitGroup, f, g) -> np.ndarray:
    """Counting convolution (f*g)(a) = sum_{xy=a} f(x) g(y) over Z_q^x.

    Exact, with no transform: xy sits at the componentwise sum of the dlog
    vectors mod d_i, so (f*g)(a) = sum_x f(x) g(a - x) on the grid.  On a
    one-axis grid with the sparser support at least _FULL_SHARE phi, one
    float64 correlation when it sums integers exactly (_float_exact);
    otherwise the rows at that support of the window W[x, a] = g(a - x), a
    view with no phi x phi table, gathered _GATHER_CELLS cells at a time.
    Integer inputs stay exact and keep their dtype; complex inputs with zero
    imaginary parts are convolved as real.  Work phi min(|supp f|, |supp g|),
    memory O(2^k phi) for k cyclic components.
    """
    fv = _as_unit_vector(G, f, dtype=None)
    gv = _as_unit_vector(G, g, dtype=None)
    if (np.iscomplexobj(fv) or np.iscomplexobj(gv)) and not (fv.imag.any() or gv.imag.any()):
        fv, gv = fv.real, gv.real
    support, other = np.count_nonzero(fv), np.count_nonzero(gv)
    if support > other:
        fv, gv, support = gv, fv, other
    dtype = np.result_type(fv, gv)
    if (len(G.grid_shape) == 1 and support >= _FULL_SHARE * G.phi
            and _float_exact(fv, gv, support)):
        ff, gg = (G.to_grid(v.astype(np.promote_types(v.dtype, np.float64))) for v in (fv, gv))
        # out[a] = sum_x f(x) g(a - x), g(a - x) = (g[1:], g)[a - x + d - 1]:
        # the correlation with f reversed, which np.convolve takes unconjugated
        out = np.convolve(np.concatenate((gg[1:], gg)), ff, "valid")
        return G.from_grid(out.astype(dtype, copy=False))
    xs = np.flatnonzero(fv)
    W = _window(G.to_grid(gv))
    out = np.zeros(G.grid_shape, dtype=dtype)
    at = np.unravel_index(G.unit_grid[xs], G.grid_shape)
    step = max(1, _GATHER_CELLS // G.phi)
    for s in range(0, len(xs), step):
        rows = W[tuple(c[s:s + step] for c in at)]
        out += np.einsum("x...,x->...", rows, fv[xs[s:s + step]])
    return G.from_grid(out)
