"""The paper's lower bounds: closed-form formulas and executable proofs."""
