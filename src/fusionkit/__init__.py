"""fusionkit: instruction-guided token selection and fusion for multi-view
driving features, plus the evaluation and data tooling around it.

Subpackages are deliberately flat:

- ``matrix``        dense float64 matrix container + FKMX on-disk format
- ``exact``         the float arithmetic whose order decides output bits
- ``numerics``      cosine, MLP, cross-attention, gradients
- ``interactor``    relevance scoring, top-k selection, fusion, token budget
- ``text_metrics``  corpus BLEU / ROUGE-L / CIDEr / exact-match accuracy
- ``driving_eval``  box IoU + grounding mAP, open-loop L2 and collision, ORA
- ``refinery``      tagged-text grammar, box/decimal normalization, records
- ``chat``          minimal chat-completion client (HTTP + deterministic replay)
- ``risk_qa``       two-step risk extraction / QA generation pipeline
- ``masking``       seeded token-masking experiment harness
- ``forking``       the one fork policy of ``fuse``, ``refine`` and ``eval planning``
- ``config``        frozen tool config, JSON file + flag layering, provenance
- ``jsontypes``     JSON type checks for record decoders and config fields
- ``cli``           the ``fusionkit`` command line tool
"""

__version__ = "0.1.0"
