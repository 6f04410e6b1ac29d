import json
import re
from pathlib import Path

import indicscore

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve_without_duplicates():
    missing = [name for name in indicscore.__all__ if not hasattr(indicscore, name)]
    assert missing == []
    assert len(indicscore.__all__) == len(set(indicscore.__all__))


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    row = {"id": "u1", "text": "మొత్తం ₹5,00,000 చెల్లించండి", "language": "te",
           "entity_tokens": [{"surface": "₹5,00,000", "class": "currency_amount"}]}
    pred = {"id": "u1", "hypothesis": "మొత్తం ఐదు లక్షల రూపాయలు చెల్లించండి"}
    (tmp_path / "holdout.jsonl").write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
    (tmp_path / "preds.jsonl").write_text(json.dumps(pred, ensure_ascii=False) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, str(README), "exec"), {})
    assert capsys.readouterr().out.split()[-1] == "1.0"  # the amount is recovered
