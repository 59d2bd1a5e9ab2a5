"""Exception hierarchy shared by all modules.

The family of an error class alone fixes the CLI's exit code and reason
line (FAMILIES).  Hypotheses are those of the main results, invariants are
provably impossible for valid inputs, and bounds are configured limits.

- parse (1): ParseError.
- hypothesis (2): HypothesisViolated, CharacteristicTwo, DegenerateForm,
  EvenDimension, NonScalarForm, NotIsometry, DimensionMismatch.
- invariant (3): InvariantViolation, ParityViolation, NotSemisimple,
  NotCoprime, NotAbelian, CertificateCheckFailed.
- bound (4): BoundExceeded, TooLarge, NoSuitableWord.
- no family (3): every other AlgebraError.
"""

# family -> (exit code, reason-line format filled in with the error)
FAMILIES = {
    "parse": (1, "parse error: {0}"),
    "hypothesis": (2, "error: {0.reason}"),
    "invariant": (3, "invariant violation: {0}"),
    "bound": (4, "bound exceeded: {0}"),
    None: (3, "error: {0.__class__.__name__}: {0}"),
}


class AlgebraError(Exception):
    """Base class for every error raised by this package."""
    family = None

    def report(self, explain=False):
        """(exit code, reason lines) of this error's family."""
        code, line = FAMILIES[self.family]
        lines = [line.format(self)]
        if explain and self.family == "hypothesis":
            lines.append(f"detail: {self}")
        return code, lines


# --- field / linear algebra -------------------------------------------------

class FieldMismatch(AlgebraError):
    """Operands live in different fields (or no embedding relates them)."""


class DivisionByZero(AlgebraError):
    pass


class ZeroInput(AlgebraError):
    pass


class ZeroVector(AlgebraError):
    pass


class NonSquare(AlgebraError):
    """A square matrix was required."""


class DimensionMismatch(AlgebraError):
    family, reason = "hypothesis", "dimension mismatch"


class NoEmbedding(AlgebraError):
    """The target field does not contain the source field."""


class NotGaloisStable(AlgebraError):
    """Subspace over the extension is not stable under the Frobenius map."""


# --- quadratic forms ----------------------------------------------------------

class CharacteristicTwo(AlgebraError):
    """Characteristic 2 is rejected: in odd dimension the polarization of a
    quadratic form has a nonzero radical, so the geometry degenerates."""
    family, reason = "hypothesis", "characteristic 2"


class DegenerateForm(AlgebraError):
    family, reason = "hypothesis", "degenerate form"


class EvenDimension(AlgebraError):
    """A scalar diagonal form is only guaranteed in odd dimension."""
    family, reason = "hypothesis", "dimension even"


class NonScalarForm(AlgebraError):
    """The Gram matrix was required to be c times the identity."""
    family, reason = "hypothesis", "non-scalar form"


class NotIsometry(AlgebraError):
    family, reason = "hypothesis", "not isometries"


class NotInvariant(AlgebraError):
    """A group element moves a subspace outside the given decomposition."""


# --- groups -------------------------------------------------------------------

class BoundExceeded(AlgebraError):
    """Element enumeration passed the configured size bound."""
    family = "bound"


class TooLarge(AlgebraError):
    """An exhaustive sweep would exceed its enumeration bound."""
    family = "bound"


class TrivialGroup(AlgebraError):
    pass


class NotAbelian(AlgebraError):
    family = "invariant"


class NotCoprime(AlgebraError):
    """The field characteristic divides the group order where the theory
    requires coprimality; for valid inputs this cannot happen."""
    family = "invariant"


# --- representation analysis ---------------------------------------------------

class NotSemisimple(AlgebraError):
    """Minimal polynomial is not squarefree where coprimality promised it."""
    family = "invariant"


class NoSuitableWord(AlgebraError):
    """No irreducibility word has a characteristic factor f of nullity
    deg f, and spinning every line is over the line-count bound."""
    family = "bound"


class ParityViolation(AlgebraError):
    """Isotypic components pair isotropically, which is impossible in odd
    dimension; signals a broken hypothesis or an implementation bug."""
    family = "invariant"


# --- main algorithm -------------------------------------------------------------

class HypothesisViolated(AlgebraError):
    """Input fails a stated hypothesis (dimension parity, solvability,
    irreducibility, isometry).  Carries a short machine-readable reason."""
    family = "hypothesis"

    def __init__(self, reason, detail=""):
        self.reason = reason
        super().__init__(f"{reason}" + (f": {detail}" if detail else ""))


class InvariantViolation(AlgebraError):
    """A mathematically impossible situation occurred; always a reportable
    bug or a corrupted input, never a normal failure mode."""
    family = "invariant"


class CertificateCheckFailed(AlgebraError):
    """The produced monomial certificate failed post-verification."""
    family = "invariant"


# --- cli -------------------------------------------------------------------------

class ParseError(AlgebraError):
    family = "parse"
