"""Estimators, synthetic designs, the odds-ratio audit, and report writers; the public names are `crpolicy`'s."""
