"""Reference implementations shared by several test modules."""


def sign_value(sig, tau):
    """Value of the piecewise sign function ``sig`` at ``tau`` in [0, 1]: +1
    flipped once per flip point strictly below ``tau``, so the value at a
    flip point still carries the pre-flip sign."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"argument {tau} outside [0, 1]")
    return -1 if sum(1 for t in sig.flips if t < tau) % 2 else 1
