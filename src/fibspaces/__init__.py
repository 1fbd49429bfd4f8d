"""fibspaces: exact-arithmetic toolkit for Fibonacci-difference sequence
spaces built on lambda-weighted averaging triangles.

The core objects are two infinite triangles (a weighted averaging matrix
and the Fibonacci-difference band matrix), their composition, and the
sequence spaces defined as the inverse image of the classical p-summable
and bounded spaces under that composition.  Everything that can be an
exact rational is one; analytic conditions that no finite computation can
decide are reported as calibrated evidence verdicts instead of booleans.
"""

from .errors import (
    DomainError,
    FibspacesError,
    ParseError,
)
from .exactreal import (
    DEFAULT_PRECISION,
    CertifiedReal,
    Exponent,
    conjugate,
    format_rational,
    parse_rational,
    power_sum,
    rpow,
    window_norm,
)
from .sequences import (
    LambdaSeq,
    PrefixGenerator,
    SeqWindow,
    fib,
    from_values,
    inv_fib_pow,
    ones_seq,
    parse_generator_spec,
    unit_seq,
    zero_seq,
)
from .triangles import (
    DenseWindow,
    RowWindowedMatrix,
    Triangle,
    apply_triangle,
    basis_vector,
    compose,
    e_inverse_matrix,
    e_matrix,
    fhat_matrix,
    forward_transform,
    identity_triangle,
    inverse_transform,
    invert_window,
    lambda_matrix,
    load_matrix,
    matrix_from_json,
    solve_triangle,
)
from .witnesses import gen_witness
from .verdicts import Status, Verdict, classify_growth, classify_to_zero
from .spaces import (
    NormEstimate,
    inclusion_bounds_check,
    membership_evidence,
    parallelogram_check,
    space_norm,
    tail_constant,
)
from .duals import (
    DualReport,
    abar,
    alpha_matrix,
    beta_matrix,
    dual_condition,
    dual_membership,
)
from .matclasses import (
    ClassReport,
    HatMatrix,
    MncEstimate,
    OpNormResult,
    class_check,
    compactness_verdict,
    hat_entry,
    noncompactness_estimate,
    operator_norm,
)

__version__ = "0.1.0"
