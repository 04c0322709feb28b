SELECT COUNT(*), COUNT(v), SUM(k), SUM(v), AVG(v), MIN(s), MAX(k) FROM e0
