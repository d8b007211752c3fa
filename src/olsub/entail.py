"""Entailment of `S <= T` under ground axioms, by goal-directed Horn-clause search.

Goals are sequents: unordered pairs of side-annotated terms, {S^L, T^R}
meaning S <= T. Proof search is cut-free: a restricted transitivity rule
(AxiomCut) fires only through declared axioms, so every derivation mentions
only subterms of the goal and axioms. Working backward from the goal, depth
first, each expanded sequent contributes one Horn clause per instance of a
structural rule that could conclude it, and unit propagation runs whenever
an expansion derives something. The search stops as soon as the goal is
derived, so a provable query expands only what its search reaches before the
proof closes; what it pushed and did not expand stays on the search stack
for the next query on the same `Engine`. A sequent closed by a zero-premise
rule (Hyp, LeftBot, RightTop, an axiom) gets no other clause, and one that
holds a join on the left or a meet on the right gets only its LeftOr or
RightAnd clause, since those rules are invertible (lemma below).

Atom axioms A <= B, a variable on each side (a nominal class hierarchy),
are never cut through. They close leaves: a sequent {A^L, C^R} of two
distinct variables is closed by one zero-premise Axiom clause when C is
reachable from A over the atom axioms. A variable's closure is built once,
lazily, by a breadth-first walk that records the axiom by which each
variable was first reached, so a proof unrolls a leaf into a shortest chain
of AxiomCuts over Hyp leaves (`reconstruct_proof`). This is complete:

    Lemma. Take as initial sequents the leaves {Z^L, C^R}, C reachable
    from Z over the atom axioms. Then a cut through an atom axiom A <= B,
    from {x, A^R} and {B^L, y} to {x, y}, is admissible. Induct on the
    derivation of {x, A^R}, cutting every copy of A^R in it at once. The
    cut permutes up past each rule whose principal term is not a copy of
    A^R. A variable on the right is principal only in Hyp {A^L, A^R}, in a
    leaf {Z^L, A^R}, and as the G of a Replace from {A^R, A^R}, which the
    cut turns into a Replace from {y, y}. At Hyp or a leaf the cut leaves
    {Z^L, y} for some Z reaching B. That follows from the derivation of
    {B^L, y}, putting Z^L for B^L up to where B^L is principal: Hyp
    {B^L, B^R} becomes the leaf {Z^L, B^R}, a leaf {B^L, C^R} composes by
    transitivity into the leaf {Z^L, C^R}, and a Replace from {B^L, B^L}
    becomes one from {Z^L, Z^L}. (Atomic axioms as initial sequents, closed
    under transitivity, keep cut admissible: Negri and von Plato, "Cut
    elimination in the presence of axioms", Bull. Symbolic Logic 4(4),
    1998.)

Only compound axioms, with a side that is not a variable, go through
AxiomCut. Two rules are never written out ahead of time; each records a
clause only when it fires. Replace concludes any sequent holding G from
{G,G}. AxiomCut through a compound axiom i = U <= V concludes {x, y} from
{x, U^R} and {V^L, y}, and runs as a semi-naive join: L_i holds the terms
x whose {x, U^R} is derived, R_i the terms y whose {V^L, y} is derived;
each newly derived premise is matched against the other side, and the cut
fires on every expanded sequent {x, y} it completes. The first premise
depends on x only, so each term pushes it once, not once per sequent. The
second is pushed on demand: {x, y} pushes {V^L, y} only once x is in L_i,
when it is expanded or, if x enters L_i later, from the join. A term whose
{x, U^R} is never derived pushes no partner premise at all, and an all-atom
axiom set pushes no cut premise at all.

Two lemmas make this complete. Read the calculus with Hyp on atoms only (a
compound Hyp is its atomic expansion) and an axiom sequent {U^L, V^R} as
the AxiomCut of two Hyps; the engine's compound Hyp and axiom clauses close
such sequents outright, before any inversion.

    Lemma (invertibility). In the cut-free calculus with Replace, AxiomCut
    through the compound axioms and the atom-closure leaves, if
    {(a1 | ... | ak)^L, y} has a derivation of height h, every {aj^L, y}
    has one of height at most h; dually for {x, (a1 & ... & ak)^R}. By
    induction on h, over the last rule. LeftOr on the join gives the
    premises themselves. A rule on y keeps the join in its premises, which
    are lower: invert them, then apply the rule. Replace from {y, y}
    concludes {aj^L, y} as well. Replace from {G, G} with G the join:
    invert both copies, which are lower, to {aj^L, aj^L}, then Replace.
    AxiomCut whose side term is the join: invert that premise, then cut.
    No leaf and no unit rule has the join as its principal term.

    Lemma (completeness at an empty stack). When the stack is empty, every
    derivable expanded sequent is derived. Every pushed sequent has been
    expanded by then, so induct on the (height, size) of a derivation. A
    sequent closed outright is derived. An invertible one pushed the
    premises of its one clause, which are derivable, no higher (first
    lemma) and smaller. Any other sequent's last rule has lower premises:
    a pick, negation or F premise was pushed with its clause, and the
    Replace premise {G, G} was pushed too; once it is derived, Replace
    fires here or in propagation. For AxiomCut i, the sequent {x, y}
    pushed {x, U^R} unless x had pushed it already, so x is in L_i. Then
    {V^L, y} was pushed, by the expansion if x was in L_i already and
    otherwise by the join, which visits every expanded, open sequent
    holding x. So y is in R_i, and the cut fires. (A sequent under the
    bounded-lattice rules needs only the cut whose x is its L-term; see
    the corollary below.)

A refuted query needs the whole backward-reachable closure, and gets it,
together with whatever earlier queries on its engine left on the stack.
Over that closure, propagation takes time linear in the clauses, at most
16 n^2 of them (see tests), and the joins take at most |L_i| * |R_i| <= (2n)^2
probes per compound axiom i: O(n^2 * (1 + m)) work overall for m compound
axioms, of which only the clauses and the cuts that fire are stored. Each
variable whose closure is asked for adds one walk over the atom axioms.

The rule set is chosen per sequent. The full ortholattice set has the
negation rules, Replace, constructor monotonicity and AxiomCut. The
bounded-lattice rules are its restriction to sequents of one term per
side: no Replace, no negation rule, and AxiomCut only with the L-term as
x, so every premise keeps one term per side as well. A sequent {a^L, b^R}
takes the bounded-lattice rules when a and b are plain, holding no NOT,
negated variable or dual symbol, and every axiom is plain too; any other
sequent takes the full set.

    Lemma (conservativity). For plain s, t and plain axioms A, the
    ortholattice calculus proves s <= t under A iff the bounded-lattice
    calculus does. "If": every bounded-lattice rule is an ortholattice
    rule. "Only if": if the bounded-lattice calculus does not prove
    s <= t, its Lindenbaum algebra M is a bounded lattice, with a map f
    per symbol that is monotone, antitone or arbitrary in each argument
    by its variance, that models A and has s </= t. M embeds (e) as a
    {0,1}-sublattice of the horizontal sum O = M + M^d, the two copies
    glued at their bounds and elements of distinct copies incomparable.
    O is an ortholattice: the complement of a in M is a in the dual copy,
    and back. The map r: O -> M that is the identity on M and sends the
    dual copy's other elements to 0 is monotone, so f_O = e.f.r keeps
    each argument's variance and agrees with f on M. So O, valuing the
    atoms as M does, models A and has s </= t, and by soundness the
    ortholattice calculus does not prove s <= t under A.

    Corollary. In one engine, a plain sequent {a^L, b^R} under plain axioms
    pushes only plain sequents of one term per side: its pick, LeftOr,
    RightAnd and F premises each hold a part of a and a part of b, one per
    side, and its cut premises {a^L, U_i^R} and {V_i^L, b^R} hold axiom
    sides. So at an empty stack it is derived iff the bounded-lattice
    calculus proves it (the completeness lemma, read for those rules), which
    by the lemma is iff the ortholattice calculus does. A full-rule sequent
    keeps the completeness lemma as it stands, since a plain premise it
    pushes is derived whenever it is derivable. A rule that fires on a plain
    sequent from outside its rule set (Replace once a {G,G} is derived, a
    cut joined through its R-term) is sound, and only derives it sooner. A
    partner premise {V_i^L, a^L} for a cut through its R-term is work its
    proof does not need, so `_join` pushes none. No same-side sequent is
    given the bounded-lattice rules: "{a^L, b^L} iff a & b <= bot" is false
    for plain a, b, since orthologic is not pseudocomplemented.

Provability is decided, not approximated: a negative verdict means the
inequality fails in some ortholattice model of the axioms.

`check` alone picks a procedure, by the axioms: a query with axioms runs on
a fresh `Engine`; an axiom-free one is decided by the normalizer's Whitman
order test on beta-reduced terms, which coincides with the ortholattice
order there (see `check`), so it never pays for a Horn-clause closure.

A proof is a by-product of whichever procedure decided the query, and
`Verdict.proof` reads it off that one. On the engine, `Engine.derived` maps
each derived sequent to the clause that first derived it, and
`reconstruct_proof` (public, for shared engines) walks those clauses back
from the goal. For an axiom-free query the proof is read off the memoized
order test, one rule per sequent of the proof. Both readers build the tree
with one walk (`_read_proof`), which plans each sequent once, so a proof
costs a walk over its own sequents, not a second search, and a sequent
reached twice is one shared subtree. A proof node carries the engine's
packed sequent, built by `sequent` and read by `elements`. `verify_proof`
re-checks a proof tree rule by rule; it shares that encoding with the
readers but no rule logic.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from . import normalize
from .errors import EngineInterrupted, NotProvable, TermIdOverflow
from .terms import (
    APP,
    BOT,
    JOIN,
    MEET,
    NEGVAR,
    NOT,
    TOP,
    VAR,
    TermId,
    TermUniverse,
    Variance,
)

# Integer encodings: an annotated term packs (side, term id), side 0 being
# L and 1 being R, so that integer order equals (side, TermId) order; a
# sequent packs its two annotated terms smallest-first, making the pair
# canonically unordered. `sequent` and `elements` are the public encoder and
# decoder; the engine's hot loops pack and unpack inline.
_TID_BITS = 30
_SIDE_BIT = 1 << _TID_BITS
_TID_MASK = _SIDE_BIT - 1
_ANN_BITS = _TID_BITS + 1
_ANN_MASK = (1 << _ANN_BITS) - 1


def _ann(tid: int, side: int) -> int:
    return (side << _TID_BITS) | tid


def _seq(a: int, b: int) -> int:
    return (a << _ANN_BITS) | b if a <= b else (b << _ANN_BITS) | a


def sequent(t1: TermId, side1: int, t2: TermId, side2: int) -> int:
    """The packed sequent {t1^side1, t2^side2}, sides 0 = L and 1 = R.
    Raises `TermIdOverflow` on a term id outside 0 <= t < 2**30 or a side
    other than 0 or 1, which would pack to another sequent's integer."""
    if (t1 | t2) >> _TID_BITS or (side1 | side2) >> 1:
        raise TermIdOverflow(
            f"{{{t1}^{side1}, {t2}^{side2}}} does not fit the {_TID_BITS}-bit sequent encoding"
        )
    a = side1 << _TID_BITS | t1
    b = side2 << _TID_BITS | t2
    return a << _ANN_BITS | b if a <= b else b << _ANN_BITS | a


def elements(s: int) -> tuple[tuple[TermId, int], tuple[TermId, int]]:
    """The two (term, side) pairs of the packed sequent `s`: L before R,
    then by term id."""
    a, b = s >> _ANN_BITS, s & _ANN_MASK
    return (a & _TID_MASK, a >> _TID_BITS), (b & _TID_MASK, b >> _TID_BITS)


# Rule tags.
HYP = "Hyp"
LEFT_BOT = "LeftBot"
RIGHT_TOP = "RightTop"
LEFT_AND = "LeftAnd"
RIGHT_AND = "RightAnd"
LEFT_OR = "LeftOr"
RIGHT_OR = "RightOr"
LEFT_NOT = "LeftNot"
RIGHT_NOT = "RightNot"
REPLACE = "Replace"
F_RULE = "F"
AXIOM_CUT = "AxiomCut"
AXIOM = "Axiom"

# The rule a bound, meet or join takes as principal element (kind, side),
# side 0 being L: a unit rule closes the sequent, an invertible rule takes
# every child as a premise, a pick takes one child.
_UNIT = {(BOT, 0): LEFT_BOT, (TOP, 1): RIGHT_TOP}
_INVERTIBLE = {(JOIN, 0): LEFT_OR, (MEET, 1): RIGHT_AND}
_PICK = {(MEET, 0): LEFT_AND, (JOIN, 1): RIGHT_OR}


@dataclass
class Stats:
    sequents: int  # expanded
    clauses: int
    steps: int
    derived: int


@dataclass
class Verdict:
    """A query's answer, what deciding it cost, and its proof on demand."""

    provable: bool
    stats: Stats
    _reader: Callable[[], ProofTree] | None = field(default=None, repr=False, compare=False)

    def proof(self) -> ProofTree:
        """A cut-free proof of the query, read off the procedure that decided
        it, with no second search. Raises `NotProvable` on a refuted verdict."""
        if self._reader is None:
            raise NotProvable("goal has no derivation; check the verdict first")
        return self._reader()


@dataclass
class ProofTree:
    """One rule application. `aux` holds the F rule's symbol name or the
    AxiomCut's axiom pair, and None for every other rule."""

    sequent: int  # packed: `sequent` builds it, `elements` reads it
    rule: str
    children: list["ProofTree"]
    aux: object = None


def _unnegated(u: TermUniverse, t: TermId) -> TermId | None:
    """What LeftNot or RightNot leaves of `t`: a negation's operand, a
    negated variable's variable, a dual-symbol application's original
    (`TermUniverse.opposite`); None for any other term."""
    node = u.node(t)
    if node.kind == NOT:
        return node.children[0]
    if node.kind == NEGVAR or (node.kind == APP and node.symbol.dual_of is not None):
        return u.opposite(t)
    return None


class Engine:
    """Goal-directed clause generator and unit propagator over one universe.

    A query expands sequents depth first from its goal, propagating as it
    goes, and returns as soon as the goal is derived. Queries share state:
    sequents already expanded and facts already derived are reused, so a long
    series of related queries (as a type checker or a test oracle makes)
    costs little more than the largest one. They share one search stack
    too. A query that derives its goal leaves its unexpanded premises on the
    stack, and the next query pushes its own goal on top. A query answers
    "no" only once the stack is empty, so the closure it refutes is
    complete, and every sequent is expanded at most once per engine. The
    price: a refuted query also expands what earlier provable queries left.

    The axiom set is fixed per engine; the rule set is chosen per sequent
    (module docstring). When every axiom is plain, holding no NOT, negated
    variable or dual symbol, a sequent of one plain term per side takes the
    bounded-lattice rules and any other the full set.

    An interrupt during an expansion leaves the engine sound: the sequent
    goes back on the stack. One during propagation does not, since the rest
    of the popped sequent's propagation is lost; every later query then
    raises `EngineInterrupted`.

    Atom axioms, between two variables, are not joined: a sequent {A^L, C^R}
    with C reachable from A over them is closed by one Axiom clause, from
    the closure of A, built once per engine (see the module docstring for
    why that is complete). Only compound axioms push cut premises and run
    AxiomCut joins.

    `clauses` holds every generated clause as `(head, body, rule, aux)` over
    integer-packed sequents, and `derived` maps each derived sequent to the
    index of its first deriving clause; `reconstruct_proof` reads a proof of
    any query the engine has answered yes from these two. A Replace or
    AxiomCut clause is added only when it fires, with its premises derived.
    An Axiom clause's `aux` is the compound axiom's index, or None for a
    leaf closed from the atom axioms' closure; an AxiomCut clause's is its
    axiom's index, an F clause's the symbol name, and any other clause's
    None. `steps` counts propagation work: watch decrements, join probes,
    the Replace and AxiomCut derivations, and each sequent the closure
    closes.
    """

    def __init__(self, universe: TermUniverse, axioms=None):
        self.u = universe
        self.axioms = list(dict.fromkeys(axioms or ()))  # drop exact duplicates, keep order
        # Atom axioms A <= B between two variables close sequents from their
        # closure; only compound axioms are AxiomCut joins.
        self._succ: dict[int, list[tuple[int, int]]] = {}  # A -> [(B, i)], atom axioms i
        self._reach: dict[int, dict] = {}  # A -> {C: (predecessor, i)}, built lazily
        # One AxiomCut join per compound axiom i = (U, V): L_i holds each x
        # with {x, U^R} derived, R_i each y with {V^L, y} derived, and {x, y}
        # follows. `_cut_at` maps U^R to (i, True) and V^L to (i, False).
        self._cuts: dict[int, tuple] = {}  # i -> (U^R, V^L, L_i, R_i)
        self._cut_at: dict[int, list[tuple[int, bool]]] = {}
        self._axiom_of_seq: dict[int, int] = {}
        node = universe.node
        for i, (v, w) in enumerate(self.axioms):
            s = sequent(v, 0, w, 1)  # refuses an id the encoding cannot hold
            if node(v).kind == VAR and node(w).kind == VAR:
                self._succ.setdefault(v, []).append((w, i))
                continue
            self._cuts[i] = (_ann(v, 1), _ann(w, 0), [], [])
            self._cut_at.setdefault(_ann(v, 1), []).append((i, True))
            self._cut_at.setdefault(_ann(w, 0), []).append((i, False))
            self._axiom_of_seq.setdefault(s, i)
        self._cut_left: dict[int, set[int]] = {}  # x -> {i : x in L_i}
        self._cut_right: dict[int, set[int]] = {}  # y -> {i : y in R_i}
        self._cut_pushed: set[int] = set()  # terms x that pushed every {x, U_i^R}
        # A sequent of a plain L-term and a plain R-term under plain axioms
        # takes the bounded-lattice rules (`_expand`); plain means holding no
        # NOT, negated variable or dual symbol (`TermUniverse.plain`).
        self._plain_axioms = all(universe.plain(t) for pair in self.axioms for t in pair)
        # per-annotated-term record: (templates, unit rule, application node or
        # None, whether its one template is LeftOr or RightAnd)
        self._info: dict[int, tuple] = {}
        self._visited: set[int] = set()  # expanded sequents
        # x -> expanded sequents holding x, except those closed outright or
        # decided by an invertible rule
        self._holding: dict[int, list[int]] = {}
        self.clauses: list[tuple] = []  # (head, body tuple, rule, aux)
        self._counters: list[int] = []
        self._watch: dict[int, list[int]] = {}
        self.derived: dict[int, int] = {}  # sequent -> index of first deriving clause
        self._queue: deque = deque()
        self._to_visit: list[int] = []  # the search stack, kept across queries
        self._interrupted = False  # set when an interrupt cuts `_run` short
        self.steps = 0

    # -- clause generation -------------------------------------------------

    def _record(self, ann: int) -> tuple:
        tid, side = ann & _TID_MASK, ann >> _TID_BITS
        node = self.u.node(tid)
        kind = node.kind
        key = (kind, side)
        kids = node.children
        templates: tuple = ()
        if key in _INVERTIBLE:
            templates = ((_INVERTIBLE[key], tuple(_ann(c, side) for c in kids)),)
        elif key in _PICK:
            # dict.fromkeys: duplicate children would yield duplicate clauses
            templates = tuple((_PICK[key], (_ann(c, side),)) for c in dict.fromkeys(kids))
        elif kind in (NOT, NEGVAR, APP):
            inner = _unnegated(self.u, tid)
            if inner is not None:
                rule = LEFT_NOT if side == 0 else RIGHT_NOT
                templates = ((rule, (_ann(inner, 1 - side),)),)
        record = (
            templates,
            _UNIT.get(key),
            node if kind == APP else None,
            key in _INVERTIBLE,
            self._plain_axioms and self.u.plain(tid),
        )
        self._info[ann] = record
        return record

    def _expand(self, s: int) -> None:
        ax = self._axiom_of_seq.get(s)
        if ax is not None:
            # An axiom sequent is closed outright; no further expansion.
            self._add_clause(s, (), AXIOM, ax)
            return
        info = self._info
        a = s >> _ANN_BITS
        b = s & _ANN_MASK
        ra = info.get(a)
        if ra is None:
            ra = self._record(a)
        rb = info.get(b)
        if rb is None:
            rb = self._record(b)
        # Zero-premise rules first: a sequent they close needs no other clause.
        if b - a == _SIDE_BIT:  # same term, sides L and R
            self._add_clause(s, (), HYP, None)
            return
        if ra[1] is not None or rb[1] is not None:
            self._add_clause(s, (), ra[1] or rb[1], None)
            return
        if a < _SIDE_BIT <= b and a in self._succ and (b ^ _SIDE_BIT) in self._closure(a):
            # {A^L, C^R} with C reachable from A over atom axioms: one leaf,
            # unrolled into a chain of AxiomCuts by `reconstruct_proof`.
            self._add_clause(s, (), AXIOM, None)
            self.steps += 1
            return
        if self._cut_left:
            for x, y in ((a, b), (b, a)):
                i = self._cut_between(x, y)
                if i is not None:
                    u_r, v_l, _, _ = self._cuts[i]
                    self._derive(s, (_seq(x, u_r), _seq(v_l, y)), AXIOM_CUT, i)
                    return
        # LeftOr and RightAnd are invertible: their one clause decides s.
        sides = ((ra, b), (rb, a))
        for r, other in sides:
            if r[3]:
                rule, comps = r[0][0]
                self._add_clause(s, tuple(_seq(c, other) for c in comps), rule, None)
                return
        holding = self._holding
        for g in (a, b) if a != b else (a,):
            hs = holding.get(g)
            if hs is None:
                holding[g] = [s]
            else:
                hs.append(s)
        # One plain L-term and one plain R-term under plain axioms: the
        # bounded-lattice rules alone, so no Replace subgoal and only the
        # L-term's cut premises (the conservativity lemma and its corollary
        # in the module docstring).
        lattice = ra[4] and rb[4] and a < _SIDE_BIT <= b
        if not lattice and a != b:
            # Replace: {G,G} concludes s for G in s. Its clause is added once
            # {G,G} is derived, here or in _run, never ahead of time.
            aa = (a << _ANN_BITS) | a
            bb = (b << _ANN_BITS) | b
            derived = self.derived
            for gg in (aa, bb):
                if gg in derived:
                    self._add_clause(s, (gg,), REPLACE, None)
                    return
            self._to_visit += (aa, bb)
        for r, other in sides if a != b else sides[:1]:
            for rule, comps in r[0]:
                premises = tuple((c << _ANN_BITS) | other if c <= other
                                 else (other << _ANN_BITS) | c for c in comps)
                self._add_clause(s, premises, rule, None)
        fa, fb = ra[2], rb[2]
        if fa is not None and fb is not None and fa.name == fb.name and a < _SIDE_BIT <= b:
            body: list[int] = []  # one L, one R: the F rule
            for sl, tr, v in zip(fa.children, fb.children, fa.symbol.variances):
                if v is not Variance.CONTRAVARIANT:
                    body.append(sequent(sl, 0, tr, 1))
                if v is not Variance.COVARIANT:
                    body.append(sequent(tr, 0, sl, 1))
            self._add_clause(s, tuple(body), F_RULE, fa.name)
        cuts = self._cuts
        if cuts:
            # Each term x pushes {x, U_i^R} once, for every sequent that will
            # hold it; s pushes its partner premise {V_i^L, y} only once x is
            # in L_i, here or in _join when x enters L_i later. Under the
            # bounded-lattice rules only the L-term is an x, so an R-term is
            # marked only once a full-rule sequent makes it push.
            pushed = self._cut_pushed
            stack = self._to_visit
            if lattice:
                cut_terms = ((a, b),)
            else:
                cut_terms = ((a, b), (b, a)) if a != b else ((a, a),)
            for x, y in cut_terms:
                if x not in pushed:
                    stack += [_seq(x, u_r) for u_r, _, _, _ in cuts.values()]
                    pushed.add(x)
                for i in self._cut_left.get(x, ()):
                    stack.append(_seq(cuts[i][1], y))

    def _closure(self, a: int) -> dict:
        """The variables reachable from variable `a` over atom axioms, each
        mapped to (the variable it was first reached from, that axiom's
        index); `a` maps to None. Breadth first, so walking back from any of
        them gives a shortest chain."""
        reach = self._reach.get(a)
        if reach is None:
            reach = self._reach[a] = {a: None}
            frontier = [a]
            succ = self._succ
            for z in frontier:
                for w, i in succ.get(z, ()):
                    if w not in reach:
                        reach[w] = (z, i)
                        frontier.append(w)
        return reach

    def _axiom_chain(self, a: TermId, c: TermId) -> list[int]:
        """The indices of the atom axioms along a shortest chain from
        variable `a` up to variable `c`, which must be reachable."""
        reach = self._closure(a)
        chain: list[int] = []
        while c != a:
            c, i = reach[c]
            chain.append(i)
        chain.reverse()
        return chain

    def _cut_between(self, x: int, y: int) -> int | None:
        """An axiom i = (U, V) with {x, U^R} and {V^L, y} both derived."""
        mine = self._cut_left.get(x)
        theirs = self._cut_right.get(y)
        if mine and theirs and not mine.isdisjoint(theirs):
            return min(mine & theirs)
        return None

    def _derive(self, head: int, body: tuple, rule: str, aux) -> None:
        """Record a Replace or AxiomCut derivation as it fires: one clause
        whose premises are all derived already."""
        self.derived[head] = len(self.clauses)
        self.clauses.append((head, body, rule, aux))
        self._counters.append(0)
        self._queue.append(head)
        self.steps += 1

    def _join(self, x: int, i: int, left: bool) -> None:
        """x joins L_i (left) or R_i: AxiomCut i fires on every expanded,
        underived sequent {x, y} whose y is already on the other side."""
        u_r, v_l, ours, theirs = self._cuts[i]
        if not left:
            ours, theirs = theirs, ours
        ours.append(x)
        (self._cut_left if left else self._cut_right).setdefault(x, set()).add(i)
        visited = self._visited
        derived = self.derived
        for y in theirs:
            h = (x << _ANN_BITS) | y if x <= y else (y << _ANN_BITS) | x
            if h in visited and h not in derived:
                p, q = (x, y) if left else (y, x)
                self._derive(h, (_seq(p, u_r), _seq(v_l, q)), AXIOM_CUT, i)
        self.steps += len(theirs)
        holders = self._holding.get(x) if left else None
        if holders:
            # the partner premise {V_i^L, y} of every open sequent {x, y},
            # but for a plain sequent whose R-term is x: its proof cuts only
            # through its L-term (the corollary in the module docstring)
            stack = self._to_visit
            info = self._info
            plain_r = x >= _SIDE_BIT and info[x][4]
            for h in holders:
                if h not in derived:
                    p, q = h >> _ANN_BITS, h & _ANN_MASK
                    y = q if p == x else p
                    if not (plain_r and y < _SIDE_BIT and info[y][4]):
                        stack.append(_seq(v_l, y))

    def _add_clause(self, head: int, body: tuple, rule: str, aux) -> None:
        clauses = self.clauses
        ci = len(clauses)
        clauses.append((head, body, rule, aux))
        need = 0
        derived = self.derived
        watch = self._watch
        to_visit = self._to_visit
        for lit in body:
            if lit not in derived:
                wl = watch.get(lit)
                if wl is None:
                    watch[lit] = [ci]
                else:
                    wl.append(ci)
                need += 1
            to_visit.append(lit)
        self._counters.append(need)
        if need == 0 and head not in derived:
            derived[head] = ci
            self._queue.append(head)

    def _search(self, goal: int) -> bool:
        """Expand depth first from the goal until it is derived or the stack
        is empty. The stack outlives the search: a derived goal returns with
        its unexpanded premises still on it, and the next search pushes its
        own goal on top, so a "no" comes only once everything pushed so far
        is expanded. An interrupted expansion is put back on the stack. An
        interrupt inside `_run` after `queue.popleft()` drops the rest of
        that sequent's propagation (with any partner premises `_join` would
        push), so it marks the engine interrupted, and every later search
        raises `EngineInterrupted` instead of answering from that state."""
        if self._interrupted:
            raise EngineInterrupted("an interrupt cut this engine's propagation short; "
                                    "build a new Engine")
        derived = self.derived
        if goal in derived:
            return True
        stack = self._to_visit
        stack.append(goal)
        visited = self._visited
        queue = self._queue
        expand = self._expand
        run = self._run
        while stack:
            cur = stack.pop()
            if cur in visited:
                continue
            visited.add(cur)
            try:
                expand(cur)
            except BaseException:  # an interrupt: expand `cur` again later
                visited.discard(cur)
                stack.append(cur)
                raise
            if queue:
                try:
                    run()
                except BaseException:
                    self._interrupted = True
                    raise
                if goal in derived:
                    return True
        return False

    def _run(self) -> None:
        queue = self._queue
        watch = self._watch
        counters = self._counters
        clauses = self.clauses
        derived = self.derived
        holding = self._holding
        derive = self._derive
        cut_at = self._cut_at
        join = self._join
        while queue:
            s = queue.popleft()
            steps = 0
            for ci in watch.pop(s, ()):
                counters[ci] -= 1
                steps += 1
                if counters[ci] == 0:
                    head = clauses[ci][0]
                    if head not in derived:
                        derived[head] = ci
                        queue.append(head)
            a = s >> _ANN_BITS
            b = s & _ANN_MASK
            if a == b:
                # {G,G} derived: Replace closes every expanded sequent holding G.
                for head in holding.get(a, ()):
                    if head not in derived:
                        derive(head, (s,), REPLACE, None)
            self.steps += steps
            if cut_at:
                # s = {x, U_i^R} puts x in L_i; s = {V_i^L, y} puts y in R_i.
                for t, x in ((a, b), (b, a)) if a != b else ((a, a),):
                    for i, left in cut_at.get(t, ()):
                        join(x, i, left)

    # -- public queries ----------------------------------------------------

    def query(self, s: TermId, t: TermId) -> bool:
        """Whether s <= t is provable under this engine's axioms."""
        # Children are interned before their parents, so packing the goal
        # checks every id the search will pack.
        return self._search(sequent(s, 0, t, 1))

    def stats(self) -> Stats:
        return Stats(len(self._visited), len(self.clauses), self.steps, len(self.derived))


# ----------------------------------------------------------------------
# one-shot operations


def check(universe: TermUniverse, s: TermId, t: TermId, axioms=None) -> Verdict:
    """Decide s <= t under the axioms. Complete: `provable=False` is definitive.

    With axioms, the query runs on a fresh `Engine`, and `stats` counts its
    sequents, clauses, propagation steps and derived sequents. An
    axiom-free query is decided by the normalizer's order test
    `normalize.leq` instead, in two phases:

        s <= t  iff  leq(delta s, delta t)  or  leq(beta delta s, beta delta t)

    Phase one is sound: every rule of the lattice test is a rule of the
    ortholattice calculus, and delta preserves equivalence. It answers most
    provable queries without running beta. Phase two runs only on a "no",
    and is sound for the same reason (beta replaces a node only by an
    equivalent bound). It is complete by the coincidence lemma:

        For beta-reduced pseudo-negation-normal terms a and b, the cut-free
        ortholattice calculus proves {a^L, b^R} iff the lattice test does;
        and it proves a same-side sequent {a^R, b^R} iff the lattice test
        proves ~a <= b (dually {a^L, b^L} iff a <= ~b), where ~ is delta's
        complement. Beta-reduced means: no join J has a child c with
        ~c <= J, and no meet M a child c with M <= ~c, in the lattice test.

    Sketch, by induction on a cut-free derivation. Hyp, the bound rules,
    the And/Or rules and the constructor rule map to the same rules of the
    lattice test, or, on a same-side sequent, to the rule for the
    complement, since ~ swaps meets and joins. A negation rule on ~x (or
    a dual symbol) turns {~x^L, b^R} into {x^R, b^R}, which the induction
    hypothesis reads as ~x <= b: the conclusion itself. Replace concludes
    from {a^R, a^R}, that is ~a <= a. For a literal or an application
    that fails; for a join ~a is a meet of the ~ai, so by Whitman some
    ~ai <= a, or ~a <= aj, which by the self-duality of the test is
    ~aj <= a; either way a child's complement is below a, which
    beta-reducedness excludes. For a meet it makes every ai
    (inductively) top, so the lattice test proves c <= a for every c and
    the conclusion holds there too. Dually for {a^L, a^L}. So on beta's
    images neither Replace nor a negation rule proves anything the lattice
    test does not, and phase two decides the query.

    Phase two runs only after beta collapsed a node; otherwise each beta
    image is a lattice-equal re-sorted copy, and phase two would repeat
    phase one's "no". Beta collapses nothing in a term that holds no bound
    and no atom together with its complement (x and ~x, a symbol and its
    dual), since Whitman's test closes only on atoms or bounds; the lemma
    is proved in `normalize.beta`, and `normalize.can_collapse` checks it,
    so on such queries beta does not run at all. When beta does run,
    images as large as their inputs show that nothing collapsed (beta
    never grows a term, and a collapse shrinks it).

    On this path `stats` describes the order test: `sequents` counts the
    goals it decided in this call, `clauses` the alternatives generated for
    them, `steps` the subgoal lookups and `derived` the goals proved. A
    goal decided by masks counts one goal and one alternative: one with a
    literal side, and one whose sides share no top-level head (see
    `normalize`). Verdicts are memoized per universe, so a repeated query
    counts 0.

    On a "yes", `Verdict.proof()` reads the proof off the procedure that
    decided: `reconstruct_proof` on the engine built here, which the
    verdict keeps alive, or the order test's reader handed the deciding
    phase."""
    axioms = list(axioms or ())
    if axioms:
        engine = Engine(universe, axioms)
        provable = engine.query(s, t)
        reader = (lambda: reconstruct_proof(engine, s, t)) if provable else None
        return Verdict(provable, engine.stats(), reader)
    tally = [0, 0, 0, 0]  # in the order of Stats' fields
    ds, dt = normalize.delta(universe, s), normalize.delta(universe, t)
    phase = _order_phase(universe, ds, dt, tally)
    reader = (lambda: _order_proof(universe, s, t, phase)) if phase else None
    return Verdict(phase > 0, Stats(*tally), reader)


def _order_phase(u: TermUniverse, ds: TermId, dt: TermId, tally: list[int] | None = None) -> int:
    """The phase of `check`'s order test that proves the axiom-free query
    whose delta images are `ds <= dt`: 1 for leq(ds, dt), 2 for leq on
    their beta images, 0 if neither does. Phase two runs only when beta
    collapsed a node of either side; otherwise it would repeat phase one."""
    if normalize.leq(u, ds, dt, tally):
        return 1
    if not (normalize.can_collapse(u, ds) or normalize.can_collapse(u, dt)):
        return 0
    bs, bt = normalize.beta(u, ds), normalize.beta(u, dt)
    if u.size(bs) == u.size(ds) and u.size(bt) == u.size(dt):
        return 0
    return 2 if normalize.leq(u, bs, bt, tally) else 0


# ----------------------------------------------------------------------
# proofs


def reconstruct_proof(engine: Engine, s: TermId, t: TermId) -> ProofTree:
    """The proof of s <= t that `engine` found, read back from `engine.derived`.

    Each derived sequent points at the clause that first derived it, whose
    premises were all derived before it; walking those clauses back from the
    goal, on an explicit stack, gives a cut-free proof whose nodes carry the
    engine's packed sequents as they are. An Axiom clause becomes a chain of
    AxiomCuts over Hyp leaves: one cut for a compound axiom's own sequent,
    and for a sequent {A^L, C^R} closed from the atom axioms' closure, one
    cut per axiom of a shortest chain A <= ... <= C. Shared subderivations
    are shared subtrees.
    """
    if not engine.query(s, t):
        raise NotProvable("goal has no derivation; check the verdict first")
    clauses = engine.clauses
    axioms = engine.axioms

    def plan(cur: int):
        _, body, rule, aux = clauses[engine.derived[cur]]
        if rule == AXIOM:
            (low, _), (high, _) = elements(cur)  # {Z0^L, Zk^R}
            chain = [aux] if aux is not None else engine._axiom_chain(low, high)
            proof = ProofTree(sequent(low, 0, low, 1), HYP, [])
            for i in chain:
                w = axioms[i][1]
                hyp = ProofTree(sequent(w, 0, w, 1), HYP, [])
                proof = ProofTree(sequent(low, 0, w, 1), AXIOM_CUT, [proof, hyp], axioms[i])
            return proof
        return cur, rule, axioms[aux] if rule == AXIOM_CUT else aux, body

    return _read_proof(sequent(s, 0, t, 1), plan)


def _read_proof(goal, plan: Callable) -> ProofTree:
    """The proof tree of the state `goal`, built bottom-up on an explicit
    stack. `plan(state)` gives either a finished `ProofTree` or
    `(packed sequent, rule, aux, premise states)`. Each state is planned and
    built once, so a state reached twice is one shared subtree."""
    plans: dict = {}
    memo: dict = {}
    stack = [goal]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
            continue
        got = plans.get(cur)
        if got is None:
            got = plans[cur] = plan(cur)
            if isinstance(got, ProofTree):
                memo[cur] = got
                continue
        todo = [p for p in got[3] if p not in memo]
        if todo:
            stack += todo
            continue
        stack.pop()
        memo[cur] = ProofTree(got[0], got[1], [memo[p] for p in got[3]], got[2])
    return memo[goal]


def _order_proof(universe: TermUniverse, s: TermId, t: TermId, phase: int) -> ProofTree:
    """The proof behind `Verdict.proof()` for an axiom-free query s <= t that
    `check` proved in `phase` (1 or 2) from the delta images of its sides:
    read off the order test that decided it, with no Horn-clause search.

    The reader walks sequents over the original terms, each oriented: an
    element (X, side) in the left position stands for delta's image of X
    when its side is L and for the image of ~X when it is R; in the right
    position, for X's image when its side is R and ~X's when it is L. In
    phase 1 these are the images; in phase 2 beta is applied on top. The
    memoized order test on the two images is the oracle: the reader enters
    only sequents it accepts, and applies to each the first rule that fits:

    1. LeftNot or RightNot on a negation, a negated variable or a dual
       symbol; both images stay as they are.
    2. Hyp, LeftBot or RightTop.
    3. LeftOr or RightAnd. Their premises' images are the parts of a join
       on the left or of a meet on the right (or the sequent holds by a
       collapsed bound), so they hold whenever the sequent does.
    4. A LeftAnd or RightOr pick, or the F rule, whose premises the order
       test accepts.
    5. Replace on an element G whose beta image collapsed to bottom or top.
       Its premise {G, G} picks a child of one copy, tested against the
       other copy *opened*: imaged by the node over its children's beta
       images (`normalize.beta_open`), which beta did not collapse.

    Each Whitman step on the images is one of these rules, and an image
    beta collapsed is taken apart by rule 5, so a sequent the test accepts
    always has a rule. The walk terminates: weigh an element by twice its
    size, plus one unless it is opened. Every step replaces an element by a
    proper part of it (a child, or the un-negated term a LeftNot or
    RightNot leaves), and Replace with its pick turns {G, H} into
    {c, G opened} for a child c of G, both lighter than G; an opened node
    is never replaced again, only by its children. So the multiset of
    weights falls at every step.

    Subproofs are shared per oriented sequent, and the walk runs on an
    explicit stack. The order test gets no tally, so a verdict's `stats`
    stay those of `check`."""
    u = universe
    node = u.node
    two = phase == 2
    images: dict[tuple[TermId, int, bool], TermId] = {}

    def image(x: TermId, complement: int, opened: bool) -> TermId:
        key = (x, complement, opened)
        got = images.get(key)
        if got is None:
            got = normalize.delta(u, x, complement)
            if two:
                got = (normalize.beta_open if opened else normalize.beta)(u, got)
            images[key] = got
        return got

    def holds(state) -> bool:
        (x, sx, ox), (y, sy, oy) = state
        return normalize.leq(u, image(x, sx, ox), image(y, 1 - sy, oy))

    def put(state, pos: int, element):
        """`state` with `element` in position `pos`."""
        return (element, state[1]) if pos == 0 else (state[0], element)

    def pick(state, pos: int):
        """The first LeftAnd or RightOr pick on the element in position
        `pos` whose premise the order test accepts, or None."""
        x, side, _ = state[pos]
        n = node(x)
        for c in dict.fromkeys(n.children):
            premise = put(state, pos, (c, side, False))
            if holds(premise):
                return _PICK[n.kind, side], None, [premise]
        return None

    def step(state) -> tuple[str, object, list]:
        """The rule applied to `state` (an oriented sequent of elements
        (term, side, opened)): rule, aux and premises."""
        p, q = state
        if p[:2] == q[:2] and p[2] != q[2]:
            # {G, G}, one copy opened: the premise of a Replace on G; the
            # copy that is not opened picks.
            found = pick(state, 1 if p[2] else 0)
            if found is not None:
                return found
        else:
            for pos, (x, side, _) in enumerate(state):
                inner = _unnegated(u, x)
                if inner is not None:
                    rule = LEFT_NOT if side == 0 else RIGHT_NOT
                    return rule, None, [put(state, pos, (inner, 1 - side, False))]
            if p[0] == q[0] and p[1] != q[1]:
                return HYP, None, []
            for x, side, _ in state:
                unit = _UNIT.get((node(x).kind, side))
                if unit is not None:
                    return unit, None, []
            for pos, (x, side, _) in enumerate(state):
                n = node(x)
                rule = _INVERTIBLE.get((n.kind, side))
                if rule is not None:
                    return rule, None, [put(state, pos, (c, side, False)) for c in n.children]
            for pos, (x, side, _) in enumerate(state):
                if (node(x).kind, side) in _PICK:
                    found = pick(state, pos)
                    if found is not None:
                        return found
            np_, nq = node(p[0]), node(q[0])
            if np_.kind == APP and nq.kind == APP and np_.name == nq.name and p[1] != q[1]:
                lpos = p[1]  # the position of the L element: 0 when p is L
                ln, rn = (np_, nq) if lpos == 0 else (nq, np_)
                pairs = []  # (element of the L term's argument, of the R term's)
                for a, b, v in zip(ln.children, rn.children, ln.symbol.variances):
                    if v is not Variance.CONTRAVARIANT:
                        pairs.append(((a, 0, False), (b, 1, False)))
                    if v is not Variance.COVARIANT:
                        pairs.append(((a, 1, False), (b, 0, False)))
                premises = [pair if lpos == 0 else pair[::-1] for pair in pairs]
                if all(holds(premise) for premise in premises):
                    return F_RULE, ln.name, premises
            if two:
                for x, side, opened in state:
                    if (
                        not opened
                        and node(x).kind in (MEET, JOIN)
                        and node(image(x, 0, False)).kind in (TOP, BOT)
                    ):
                        mine, other = (x, side, False), (x, side, True)
                        return REPLACE, None, [(mine, other) if side == 0 else (other, mine)]
        raise RuntimeError("_order_proof found no rule for a sequent the order test accepts")

    def plan(state):
        (x, sx, _), (y, sy, _) = state
        return (sequent(x, sx, y, sy), *step(state))

    return _read_proof(((s, 0, False), (t, 1, False)), plan)


# ----------------------------------------------------------------------
# independent proof checking


def verify_proof(universe: TermUniverse, proof: ProofTree, axioms=None) -> bool:
    """Check a proof tree rule by rule against the cut-free schemas.

    Every node must carry a canonical packed sequent over terms of
    `universe`. Its (term, side) pairs are read with `elements`, and each
    premise is compared with the packed sequent its rule allows, built with
    `sequent`. That encoding is all the verifier shares with the proof
    readers; it shares no rule logic. A LeftAnd or RightOr pick holds if its
    one premise is the conclusion's other element, unchanged, together with
    some child of the principal term on the principal's side, looked up
    among the principal's children.
    LeftOr, RightAnd, F and AxiomCut premises must match their schema one
    for one and in order, and a negation rule's premise is the un-negated
    term on the other side."""
    return find_invalid_node(universe, proof, axioms) is None


def find_invalid_node(universe: TermUniverse, proof: ProofTree, axioms=None) -> str | None:
    """Path of the first node violating its rule schema, or None if valid.
    A sequent that is not canonical, or names a term the universe does not
    hold, violates every schema."""
    pairs = list(axioms or ())
    size = len(universe)
    ok: set[int] = set()
    stack: list[tuple[ProofTree, str]] = [(proof, "root")]
    while stack:
        node, path = stack.pop()
        if id(node) in ok:
            continue
        if not _node_matches_schema(universe, size, node, pairs):
            return path
        ok.add(id(node))
        for i, child in enumerate(node.children):
            stack.append((child, f"{path}.{i}"))
    return None


def _node_matches_schema(u: TermUniverse, size: int, node: ProofTree, axioms: list) -> bool:
    s = node.sequent
    if not 0 <= s < 1 << 2 * _ANN_BITS:
        return False
    a, b = elements(s)  # L before R
    if a[0] >= size or b[0] >= size or sequent(*a, *b) != s:
        return False  # names a term `u` does not hold, or is not canonical
    kids = node.children
    rule = node.rule

    if rule == HYP:
        return not kids and a[0] == b[0] and a[1] != b[1]
    if rule == LEFT_BOT:
        return not kids and any(side == 0 and u.node(t).kind == BOT for t, side in (a, b))
    if rule == RIGHT_TOP:
        return not kids and any(side == 1 and u.node(t).kind == TOP for t, side in (a, b))
    if rule == REPLACE:
        if len(kids) != 1:
            return False
        return any(kids[0].sequent == sequent(t, side, t, side) for t, side in (a, b))
    if rule in (LEFT_AND, RIGHT_AND, LEFT_OR, RIGHT_OR):
        kind = MEET if rule in (LEFT_AND, RIGHT_AND) else JOIN
        side = 0 if rule in (LEFT_AND, LEFT_OR) else 1
        branching = rule in (RIGHT_AND, LEFT_OR)  # all children vs. one pick
        for (pt, ps), (ct, cs) in ((a, b), (b, a)):
            n = u.node(pt)
            if ps != side or n.kind != kind:
                continue
            if branching:
                if len(kids) == len(n.children) and all(
                    k.sequent == sequent(c, side, ct, cs) for k, c in zip(kids, n.children)
                ):
                    return True
            elif len(kids) == 1:
                # a pick: some element of the premise is a child of the
                # principal term, and the premise is that child and the context
                premise = kids[0].sequent
                if any(
                    t in n.children and premise == sequent(t, side, ct, cs)
                    for t, _ in elements(premise)
                ):
                    return True
        return False
    if rule in (LEFT_NOT, RIGHT_NOT):
        side = 0 if rule == LEFT_NOT else 1
        for (pt, ps), (ct, cs) in ((a, b), (b, a)):
            if ps != side:
                continue
            n = u.node(pt)
            if n.kind == NOT:
                inner = n.children[0]
            elif n.kind == NEGVAR:
                inner = u.var(n.name)
            elif n.kind == APP and n.symbol.dual_of is not None:
                inner = u.app(u.symbols[n.symbol.dual_of], n.children)
            else:
                continue
            if len(kids) == 1 and kids[0].sequent == sequent(inner, 1 - side, ct, cs):
                return True
        return False
    if rule == F_RULE:
        if a[1] == b[1]:
            return False
        nl = u.node(a[0])  # a is the L element, b the R element
        nr = u.node(b[0])
        if nl.kind != APP or nr.kind != APP or nl.symbol.name != nr.symbol.name:
            return False
        expected = []  # (L term, R term) of each premise, in order
        for sl, tr, v in zip(nl.children, nr.children, nl.symbol.variances):
            if v is Variance.INVARIANT:
                expected += [(sl, tr), (tr, sl)]
            elif v is Variance.COVARIANT:
                expected.append((sl, tr))
            else:
                expected.append((tr, sl))
        return len(kids) == len(expected) and all(
            k.sequent == sequent(x, 0, y, 1) for k, (x, y) in zip(kids, expected)
        )
    if rule == AXIOM_CUT:
        if len(kids) != 2 or not isinstance(node.aux, tuple) or len(node.aux) != 2:
            return False
        v, w = node.aux
        if (v, w) not in axioms or not (0 <= v < size and 0 <= w < size):
            return False  # an unlisted axiom, or one over a term `u` does not hold
        first, second = kids[0].sequent, kids[1].sequent
        for (gt, gs), (dt, ds) in ((a, b), (b, a)):
            if first == sequent(gt, gs, v, 1) and second == sequent(w, 0, dt, ds):
                return True
        return False
    return False


# ----------------------------------------------------------------------
# proof display


def walk_proof(proof: ProofTree):
    """Every node of `proof` in preorder as `(node, depth)`, each followed,
    after its subtree, by `(None, depth)`. The walk runs on an explicit
    stack, so a proof of any depth renders; a shared subproof is visited
    once per occurrence."""
    stack: list[tuple[ProofTree | None, int]] = [(proof, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if node is not None:
            stack.append((None, depth))
            stack.extend((child, depth + 1) for child in reversed(node.children))


def format_proof(universe: TermUniverse, proof: ProofTree, rename=None) -> str:
    from .syntax import print_term

    lines: list[str] = []
    shown: dict[TermId, str] = {}  # each distinct term is printed once
    for node, depth in walk_proof(proof):
        if node is None:
            continue
        rule = node.rule
        if rule == F_RULE and node.aux is not None:
            rule = f"F[{node.aux}]"
        texts = []
        for t, side in elements(node.sequent):
            text = shown.get(t)
            if text is None:
                text = shown[t] = print_term(universe, t, rename)
            texts.append(f"{text}^{'LR'[side]}")
        lines.append("  " * depth + f"{rule}: {', '.join(texts)}")
    return "\n".join(lines)
