"""The per-schema wire codec under its original names.

Every schema's wire framing is now a framing of its compiled plan
(:mod:`repro.core.plan`), variable-length schemas included; these names
stay for callers that ask which schemas take the compiled path.
"""

from repro.core.plan import plan_at, plan_for

#: The plan for a field-type tuple (``None`` only for a non-schema).
codec_for_types = plan_for
#: The plan for the wire record at a buffer position (``None``: dynamic).
peek_codec = plan_at
