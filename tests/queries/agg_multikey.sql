SELECT s, flag, COUNT(*), COUNT(k), SUM(k), AVG(v), MIN(v), MAX(s) FROM e1024 GROUP BY s, flag
